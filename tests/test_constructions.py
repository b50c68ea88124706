"""The construction chain: design, lines, embedding, interval signal,
modulation, probability signal, sampling, and the level-set demo."""

import hashlib
import itertools
import math

import numpy as np
import pytest

import ap4kit as k
from ap4kit.errors import (
    InvalidDesignError,
    ModulusTooSmallError,
    OutOfDomainError,
    ProbabilityOutOfRangeError,
)

# First-run measurement of max_r |G^(r)| at n=10007 was 0.0122943; the pinned
# regression ceiling is 1.5x that value.
G_SPECTRUM_CEILING_10007 = 0.018442


@pytest.fixture(scope="module")
def m10007():
    return k.make_modulus(10007)


@pytest.fixture(scope="module")
def f10007(m10007):
    return k.build_interval_signal(m10007)


@pytest.fixture(scope="module")
def g10007(m10007):
    return k.build_modulated_signal(m10007)


@pytest.fixture(scope="module")
def p10007(m10007):
    return k.build_probability_signal(m10007)


def _grid_ap4_sum_loop(signs):
    """The sum over keys x and steps d in {-3..3}^3 by dict lookups, the oracle for grid_ap4_sum."""
    total = 0
    steps = range(-3, 4)
    for x in signs:
        for d in itertools.product(steps, steps, steps):
            prod = 1
            for i in range(4):
                prod *= signs.get(tuple(c + i * e for c, e in zip(x, d)), 0)
            total += prod
    return total


class TestDesignAndLines:
    def test_reference_contents(self):
        design = k.reference_design()
        assert len(design.points) == 16
        assert (1, 1, 3) in design
        assert (1, 1, 1) not in design

    def test_line_census(self):
        lines = k.enumerate_lines()
        # oracle: lines in a 4^3 grid number ((4+2)^3 - 4^3) / 2 = 76
        assert len(lines) == ((4 + 2) ** 3 - 4**3) // 2
        by_kind = {}
        for line in lines:
            by_kind[line.kind] = by_kind.get(line.kind, 0) + 1
        assert by_kind == {k.AXIS: 48, k.PLANE_DIAGONAL: 24, k.MAIN_DIAGONAL: 4}

    def test_lines_are_collinear_and_distinct(self):
        lines = k.enumerate_lines()
        assert len({line.points for line in lines}) == 76
        for line in lines:
            pts = line.points
            steps = {
                tuple(b - a for a, b in zip(p, q)) for p, q in zip(pts, pts[1:])
            }
            assert len(steps) == 1
            assert len(set(pts)) == 4

    def test_validate_reference(self):
        assert k.validate_design(k.reference_design()).ok

    def test_validate_empty(self):
        check = k.validate_design(k.GridDesign(frozenset()))
        assert not check.ok
        assert len(check.violations) == 72

    def test_validate_mutated(self):
        pts = set(k.reference_design().points)
        pts.remove((1, 1, 3))
        pts.add((1, 1, 1))
        check = k.validate_design(k.GridDesign(frozenset(pts)))
        assert not check.ok
        assert check.violations

    def test_out_of_domain_point(self):
        with pytest.raises(OutOfDomainError):
            k.GridDesign(frozenset({(0, 1, 1)}))


class TestSignGridAndLift:
    def test_sign_values(self):
        signs = k.sign_grid(k.reference_design())
        assert signs[(1, 1, 3)] == -1
        assert signs[(1, 1, 1)] == 1
        assert sum(signs.values()) == 64 - 2 * 16

    def test_invalid_design_rejected(self):
        with pytest.raises(InvalidDesignError):
            k.sign_grid(k.GridDesign(frozenset()))

    def test_grid_sum(self):
        assert k.grid_ap4_sum(k.sign_grid(k.reference_design())) == -72

    @pytest.mark.parametrize("span", [range(1, 5), range(0, 6), range(-3, 10, 3)])
    def test_grid_sum_matches_loop(self, span):
        # random sign maps on the grid, on a box around it (points off the grid), and
        # on a sparse lattice where steps of 3 join points; zeros and +/-4 included
        rng = np.random.default_rng(len(span))
        box = list(itertools.product(span, span, span))
        for trial in range(4):
            keep = rng.random(len(box)) < rng.uniform(0.2, 1.0)
            signs = {
                p: int(rng.choice((-4, -1, 0, 1, 1, 2)) if trial % 2 else rng.choice((-1, 1)))
                for p, kept in zip(box, keep)
                if kept
            }
            assert k.grid_ap4_sum(signs) == _grid_ap4_sum_loop(signs)
        assert k.grid_ap4_sum({}) == 0 == _grid_ap4_sum_loop({})
        assert k.grid_ap4_sum({(7, -3, 2): -2}) == 16 == _grid_ap4_sum_loop({(7, -3, 2): -2})

    def test_grid_sum_values_checked(self):
        with pytest.raises(ValueError):
            k.grid_ap4_sum({(1, 1, 1): 5})
        with pytest.raises(ValueError):
            k.grid_ap4_sum({(1, 1, 1): 1, (2, 2, 2): -5})

    def test_embed_values(self):
        assert k.embed_triple(1, 1, 1) == 73
        assert k.embed_triple(4, 4, 4) == 292
        assert k.embed_triple(1, 1, 3) == 201
        with pytest.raises(OutOfDomainError):
            k.embed_triple(0, 1, 1)
        with pytest.raises(OutOfDomainError):
            k.embed_triple(1, 5, 1)

    def test_freiman_reference(self):
        assert k.freiman_check().ok

    def test_freiman_narrow_base_fails(self):
        check = k.freiman_check(lambda p: p[0] + 4 * p[1] + 16 * p[2])
        assert not check.ok
        (x, y), (z, w) = check.collision
        emb = lambda p: p[0] + 4 * p[1] + 16 * p[2]
        vec = lambda a, b: tuple(u - v for u, v in zip(a, b))
        assert emb(x) - emb(y) == emb(z) - emb(w)
        assert vec(x, y) != vec(z, w)

    def test_freiman_not_additive_fails(self):
        # x^2 is not additive: (1,1,1)-(2,1,1) and (2,1,1)-(3,1,1) share the
        # vector difference but their image differences are -3 and -5
        check = k.freiman_check(lambda p: p[0] ** 2 + 100 * p[1] + 10000 * p[2])
        assert not check.ok
        assert check.collision == (((1, 1, 1), (2, 1, 1)), ((2, 1, 1), (3, 1, 1)))

    def test_freiman_evaluates_embedding_once_per_point(self):
        calls = []

        def counted(p):
            calls.append(p)
            return k.embed_triple(*p)

        assert k.freiman_check(counted).ok
        assert len(calls) == 64 and len(set(calls)) == 64

    def test_freiman_identity_map(self):
        check = k.freiman_check(lambda p: p[0], [(i,) for i in range(1, 5)])
        assert check.ok

    def test_freiman_matches_pair_loop(self, freiman_check_loop):
        # seeded random embeddings of the 3-D grid, of random parts of it and
        # of 1-D point lists: the same verdict and the same witness as the loop
        rng = np.random.default_rng(20240)
        grid = list(itertools.product(range(1, 5), repeat=3))
        outcomes = set()
        for case in range(600):
            if case % 3 == 2:
                line = rng.permutation(np.arange(-12, 13))[: rng.integers(1, 12)]
                pts = [(int(x),) for x in line]
            elif case % 3 == 1:
                pts = [grid[i] for i in sorted(rng.choice(64, rng.integers(1, 20), replace=False))]
            else:
                pts = grid
            weights = rng.integers(-20, 21, size=len(pts[0])).tolist()
            images = {p: sum(w * c for w, c in zip(weights, p)) for p in pts}
            if rng.random() < 0.4:
                bumped = pts[rng.integers(len(pts))]
                images[bumped] += int(rng.integers(-3, 4))
            check = k.freiman_check(images.__getitem__, pts)
            assert check == freiman_check_loop(images.__getitem__, pts)
            outcomes.add((len(pts[0]), check.ok))
        assert outcomes == {(1, True), (1, False), (3, True), (3, False)}

    def test_freiman_images_must_be_int64(self):
        with pytest.raises(ValueError):
            k.freiman_check(lambda p: float(k.embed_triple(*p)))
        with pytest.raises(ValueError):
            k.freiman_check(lambda p: p[0] + 0.5, [(i,) for i in range(1, 5)])
        with pytest.raises(ValueError):
            k.freiman_check(lambda p: (2**62) * p[0], [(-1,), (1,)])
        # int8 images are widened before they are subtracted: 100 - 0 and
        # -56 - 100 would otherwise both read 100
        images = {0: 0, 1: 100, 3: -56}
        assert k.freiman_check(lambda p: np.int8(images[p[0]]), [(0,), (1,), (3,)]).ok

    def test_freiman_rejects_points_without_an_int64_key(self):
        for pts in ([(0,), (2**62,)], [(0.5,), (1.5,)], [(1, 2), (3,)]):
            with pytest.raises(ValueError):
                k.freiman_check(lambda p: 0, pts)
        assert k.freiman_check(lambda p: 3 * p[0], [(0,), (2**61,)]).ok

    def test_lift_values(self):
        f = k.lift_signal(k.sign_grid(k.reference_design()))
        assert f.value_at(73) == 1
        assert f.value_at(201) == -1
        assert f.value_at(1) == 0
        assert min(f.support()) >= 73
        assert max(f.support()) <= 292
        assert len(f.support()) == 64

    def test_lift_sum_matches_grid(self):
        signs = k.sign_grid(k.reference_design())
        f = k.lift_signal(signs)
        assert k.ap4_sum_z(f) == -72
        assert k.ap4_sum_z(f) == k.grid_ap4_sum(signs)

    def test_ap_transfer_exhaustive(self):
        # every vector progression in the grid maps to a progression of image
        # values, and every progression of image values comes from one
        signs = k.sign_grid(k.reference_design())
        points = list(signs.keys())
        images = {p: k.embed_triple(*p) for p in points}
        image_set = set(images.values())
        by_image = {v: p for p, v in images.items()}

        grid_aps = []
        for x in points:
            for d in itertools.product((-1, 0, 1), repeat=3):
                quad = [tuple(x[i] + j * d[i] for i in range(3)) for j in range(4)]
                if all(all(1 <= c <= 4 for c in q) for q in quad):
                    grid_aps.append(quad)
        for quad in grid_aps:
            vals = [images[q] for q in quad]
            assert vals[1] - vals[0] == vals[2] - vals[1] == vals[3] - vals[2]

        image_aps = 0
        for v in image_set:
            for step in range(-73, 74):
                quad = [v + j * step for j in range(4)]
                if all(q in image_set for q in quad):
                    image_aps += 1
                    pts = [by_image[q] for q in quad]
                    diffs = {
                        tuple(b - a for a, b in zip(p, q))
                        for p, q in zip(pts, pts[1:])
                    }
                    assert len(diffs) == 1
        assert image_aps == len(grid_aps)


# F's exact k = 4 numerators, recorded; 1201, 2411, 3607 and 4801 are the
# least primes with block length t = 1, 2, 3 and 4
_F_NUMERATORS = {
    1201: -72, 2411: -144, 3607: -216, 4801: -432, 5003: -432,
    6007: -648, 10007: -1584, 20011: -6192, 40009: -26136, 200003: -661392,
}


class TestIntervalSignal:
    def test_block_length_gate(self):
        assert k.interval_block_length(k.make_modulus(10007)) == 8
        assert k.interval_block_length(k.make_modulus(6007)) == 5
        assert k.interval_block_length(k.make_modulus(5003)) == 4
        with pytest.raises(ModulusTooSmallError):
            # 4507 // 1200 = 3 but 1500 * 3 < 4507: the range has no integer
            k.interval_block_length(k.make_modulus(4507))
        with pytest.raises(ModulusTooSmallError):
            k.interval_block_length(k.make_modulus(13))
        # below 1200 no block length fits, so F cannot be built
        for n in (1193, 1009):
            with pytest.raises(ModulusTooSmallError):
                k.build_interval_signal(k.make_modulus(n))

    def test_block_contents(self):
        block = k.interval_block(1, 8)
        assert block.start == 9 and block.length == 8
        assert k.interval_block(300, 8).start == 599 * 8 + 1

    def test_progression_count_closed_form(self):
        # independent oracle: count pairs of endpoints agreeing mod 3 by loops
        for t in (1, 2, 5, 8, 16, 33):
            direct = sum(
                1
                for x in range(1, t + 1)
                for w in range(1, t + 1)
                if (w - x) % 3 == 0
            )
            assert k.interval_progression_count(t) == direct
        assert k.interval_progression_count(8) == 22

    def test_signal_shape(self, m10007, f10007):
        values = f10007.values
        assert f10007.exact
        assert int((values != 0).sum()) == 64 * 8
        assert set(np.unique(values)) <= {-1, 0, 1}
        # support stays inside [1, n/2]: no wraparound progressions possible
        nz = np.nonzero(values)[0]
        assert nz.min() >= 1
        assert nz.max() <= 10007 // 2

    @pytest.mark.parametrize("n", [10007, 1201])
    def test_blocks_against_a_loop(self, n):
        # 1201 is the least modulus F is built at, with t = 1
        m = k.make_modulus(n)
        t = k.interval_block_length(m)
        lift = k.lift_signal(k.sign_grid(k.reference_design()))
        want = [0] * n
        for block in range(1, 301):
            for x in range((2 * block - 1) * t + 1, 2 * block * t + 1):
                want[x] = lift.value_at(block)
        got = k.build_interval_signal(m)
        assert got.exact
        assert got.values.tolist() == want

    def test_exact_numerator(self, f10007):
        mean = k.apk_mean_zn([f10007] * 4)
        assert mean.exact_numerator == -72 * 22 == -1584
        assert mean.value <= -1e-5

    @pytest.mark.parametrize("n", list(_F_NUMERATORS))
    def test_automatic_block_length_meets_identity_bound(self, n):
        # t = n // 1200 gives 878 t - 2 < n, so every F has numerator -72 p(t)
        m = k.make_modulus(n)
        t = k.interval_block_length(m)
        assert 878 * t - 2 < n
        numerator = k.apk_mean_zn([k.build_interval_signal(m)] * 4).exact_numerator
        assert numerator == -72 * k.interval_progression_count(t) == _F_NUMERATORS[n]

    def test_interval_ap_rigidity_6007(self):
        # if x, x+d, x+2d, x+3d all land in blocks, the block indices form a
        # progression; exhaustive over all (x, d) at n = 6007
        n = 6007
        m = k.make_modulus(n)
        t = k.interval_block_length(m)
        member = np.zeros(n, dtype=bool)
        block_of = np.full(n, -1, dtype=np.int64)
        for idx in range(1, 301):
            res = k.interval_block(idx, t).residues(m)
            member[res] = True
            block_of[res] = idx
        doubled = np.concatenate((member, member))
        hits = 0
        for d in range(n):
            mask = (
                member
                & doubled[d : d + n]
                & doubled[2 * d % n : 2 * d % n + n]
                & doubled[3 * d % n : 3 * d % n + n]
            )
            xs = np.nonzero(mask)[0]
            if xs.size == 0:
                continue
            k0 = block_of[xs]
            k1 = block_of[(xs + d) % n]
            k2 = block_of[(xs + 2 * d) % n]
            k3 = block_of[(xs + 3 * d) % n]
            assert ((k1 - k0 == k2 - k1) & (k2 - k1 == k3 - k2)).all()
            hits += xs.size
        # total count: one orbit of p(t) progressions per block progression
        block_counts = [0, 0, 0]
        for idx in range(1, 301):
            block_counts[idx % 3] += 1
        expected = sum(c * c for c in block_counts) * k.interval_progression_count(t)
        assert hits == expected

    def test_block_progression_counts_constant(self):
        # progressions inside I_k x I_l x I_m x I_n number exactly p(t)
        n = 6007
        m = k.make_modulus(n)
        t = k.interval_block_length(m)
        p = k.interval_progression_count(t)
        rng = k.RngStream(9)
        for _ in range(20):
            k0 = 1 + rng.next_word() % 150
            step = int(rng.next_word() % 51) - 25
            if not 1 <= k0 + 3 * step <= 300:
                step = 0
            blocks = [k.interval_block(k0 + j * step, t).residues(m) for j in range(4)]
            sets = [set(int(x) for x in b) for b in blocks]
            count = 0
            for x in sets[0]:
                for w in sets[3]:
                    if (w - x) % 3 == 0:
                        d = (w - x) // 3
                        if (x + d) % n in sets[1] and (x + 2 * d) % n in sets[2]:
                            count += 1
            assert count == p


class TestModulatedSignal:
    def test_zero_where_interval_signal_zero(self, f10007, g10007):
        mask = f10007.values == 0
        assert np.abs(g10007.values[mask]).max() == 0.0

    def test_range(self, g10007):
        stats = k.signal_stats(g10007)
        assert stats.minimum >= -4.0
        assert stats.maximum <= 4.0

    def test_real_cosine_form(self, m10007, f10007, g10007):
        # spot check against the four-phase sum at a handful of points
        n = 10007
        for x in (9, 10, 100, 2000, 4800):
            fx = int(f10007.values[x])
            expected = fx * sum(
                math.cos(2 * math.pi * ((c * x * x) % n) / n) for c in (1, -1, 3, -3)
            )
            assert g10007.values[x] == pytest.approx(expected, abs=1e-12)

    def test_spectrum_within_pinned_ceiling(self, g10007):
        sp = k.dft(g10007)
        top = k.max_coefficient(sp)
        assert top <= G_SPECTRUM_CEILING_10007
        assert top <= 512 * math.log(10007) / math.sqrt(10007)


class TestPatternClassification:
    def test_partition(self):
        cls = k.classify_patterns()
        assert len(cls.all_patterns) == 256
        assert len(cls.nonzero_u) + len(cls.zero_u_nonzero_w) + len(cls.null) == 256
        assert len(cls.null) == 2
        assert sorted((pc.p, pc.q, pc.r, pc.s) for pc in cls.null) == [
            (-1, 3, -3, 1),
            (1, -3, 3, -1),
        ]
        assert all(pc.v == 0 for pc in cls.null)

    def test_specific_values(self):
        pc = k.PatternCoeffs.from_signs(3, 3, 3, 3)
        assert (pc.u, pc.v, pc.w) == (12, 36, 42)
        null = k.PatternCoeffs.from_signs(1, -3, 3, -1)
        assert (null.u, null.v, null.w) == (0, 0, 0)

    def test_theta_identity(self):
        rng = k.RngStream(17)
        cls = k.classify_patterns()
        pairs = [
            (int(rng.next_word() % 10007), int(rng.next_word() % 10007))
            for _ in range(100)
        ]
        for pc in cls.all_patterns:
            for x, d in pairs:
                direct = (
                    pc.p * x * x
                    + pc.q * (x + d) ** 2
                    + pc.r * (x + 2 * d) ** 2
                    + pc.s * (x + 3 * d) ** 2
                )
                assert direct == pc.u * x * x + pc.v * x * d + pc.w * d * d

    def test_modulated_mean_against_naive(self):
        # independent double loop with cmath at n = 101
        import cmath

        n = 101
        m = k.make_modulus(n)
        rng = k.RngStream(31)
        vals = np.fromiter(
            (int(rng.next_word() % 3) - 1 for _ in range(n)), dtype=np.int64, count=n
        )
        s = k.ZnSignal(m, vals)
        for uvw in ((1, 0, 0), (0, 0, 1), (2, 3, 5), (-1, 4, -7)):
            u, v, w = uvw
            acc = 0j
            for d in range(n):
                for x in range(n):
                    prod = (
                        vals[x]
                        * vals[(x + d) % n]
                        * vals[(x + 2 * d) % n]
                        * vals[(x + 3 * d) % n]
                    )
                    if prod:
                        theta = (u * x * x + v * x * d + w * d * d) % n
                        acc += prod * cmath.exp(2j * cmath.pi * theta / n)
            expected = acc / n**2
            got = k.modulated_ap4_mean(s, uvw)
            assert abs(got - expected) < 1e-10

    def test_null_pattern_equals_plain_mean(self, m10007, f10007):
        mean = k.apk_mean_zn([f10007] * 4)
        null = k.modulated_ap4_mean(f10007, (0, 0, 0))
        assert abs(null.imag) < 1e-12
        assert null.real == pytest.approx(mean.value, abs=1e-12)


class TestProbabilitySignal:
    def test_affine_formula(self, g10007, p10007):
        assert np.abs(p10007.values - (g10007.values + 4.0) / 8.0).max() == 0.0
        mask = g10007.values == 0.0
        assert np.all(p10007.values[mask] == 0.5)

    def test_range(self, p10007):
        stats = k.signal_stats(p10007)
        assert stats.minimum >= 0.0
        assert stats.maximum <= 1.0

    def test_spectrum_scaling(self, g10007, p10007):
        sp_g = k.dft(g10007)
        sp_p = k.dft(p10007)
        assert float(np.abs(sp_p.coeffs[1:] - sp_g.coeffs[1:] / 8.0).max()) < 1e-12


class TestSampling:
    def test_certain_probabilities(self):
        m = k.make_modulus(11)
        rng = k.RngStream(0)
        full = k.sample_indicator(k.constant_signal(m, 1.0), rng)
        assert full.values.tolist() == [1] * 11
        empty = k.sample_indicator(k.constant_signal(m, 0.0), rng)
        assert empty.values.tolist() == [0] * 11

    def test_out_of_range_rejected(self):
        m = k.make_modulus(11)
        with pytest.raises(ProbabilityOutOfRangeError):
            k.sample_indicator(k.constant_signal(m, 1.5), k.RngStream(0))

    def test_nan_probability_rejected(self):
        # NaN fails every comparison, so a range test must not be written as two rejections
        m = k.make_modulus(11)
        probs = np.full(11, 0.5)
        probs[4] = np.nan
        with pytest.raises(ProbabilityOutOfRangeError):
            k.sample_indicator(k.ZnSignal(m, probs), k.RngStream(0))

    def test_complex_probabilities_rejected(self):
        m = k.make_modulus(11)
        with pytest.raises(ProbabilityOutOfRangeError):
            k.sample_indicator(k.constant_signal(m, 0.5 + 0j), k.RngStream(0))

    def test_deterministic_given_seed(self, p10007):
        a = k.sample_indicator(p10007, k.RngStream(42))
        b = k.sample_indicator(p10007, k.RngStream(42))
        c = k.sample_indicator(p10007, k.RngStream(43))
        assert (a.values == b.values).all()
        assert (a.values != c.values).any()

    def test_frozen_draws_hand_built(self):
        # recorded from the per-element reference implementation; covers the
        # threshold edge cases 0, 1/2, the largest double below 1, and 1
        m = k.make_modulus(11)
        probs = [0.0, 0.5, 1 - 2.0**-53, 1.0, 0.25, 0.75, 2.0**-60, 0.999, 0.1, 1 / 3, 0.0]
        p_signal = k.ZnSignal(m, np.array(probs))
        frozen = {
            0: [0, 1, 1, 1, 1, 1, 0, 1, 0, 0, 0],
            1: [0, 0, 1, 1, 0, 0, 0, 1, 0, 0, 0],
            2: [0, 0, 1, 1, 0, 1, 0, 1, 0, 0, 0],
            3: [0, 0, 1, 1, 1, 1, 0, 1, 0, 0, 0],
        }
        for seed, expected in frozen.items():
            assert k.sample_indicator(p_signal, k.RngStream(seed)).values.tolist() == expected

    def test_frozen_draws_probability_signal_1201(self):
        # (set size, sha256 of the packed 0/1 vector), recorded from the sampler that
        # test_frozen_draws_hand_built ties to the per-element reference
        frozen = {
            0: (616, "68404fc22531254ce3f68a22874e35be98ce85c036ad8fda8d4b3303106cbafc"),
            1: (639, "631423eecef52f08332a6f6a0e7705478abbd95fdbb1794a968899e3088b4051"),
            42: (626, "1f1f6ee4edd3ac1bb2cdf47762f940e99ab73153aae81a075036eb596b48a969"),
        }
        p_signal = k.build_probability_signal(k.make_modulus(1201))
        for seed, (size, digest) in frozen.items():
            values = k.sample_indicator(p_signal, k.RngStream(seed)).values
            packed = np.packbits(values.astype(np.uint8)).tobytes()
            assert (int(values.sum()), hashlib.sha256(packed).hexdigest()) == (size, digest)

    def test_density_concentrates(self, p10007):
        mean_p = k.signal_stats(p10007).mean
        sample = k.sample_indicator(p10007, k.RngStream(42))
        density = k.signal_stats(sample).mean
        assert abs(density - mean_p) <= 4.0 / math.sqrt(10007)


class TestQuadraticLevelSet:
    def test_density_near_2c(self, m10007):
        a = k.quadratic_level_set(m10007, 0.05)
        density = k.signal_stats(a).mean
        assert abs(density - 0.1) <= 2.0 / math.sqrt(10007)

    def test_membership_rule(self, m10007):
        a = k.quadratic_level_set(m10007, 0.05)
        n = 10007
        cutoff = 0.05 * n
        for x in (0, 1, 2, 500, 9000):
            inside = (x * x) % n <= cutoff or (x * x) % n >= n - cutoff
            assert bool(a.values[x]) == inside

    def test_c_range_validated(self, m10007):
        for bad in (0.0, 0.25, 0.3, -0.1):
            with pytest.raises(ValueError):
                k.quadratic_level_set(m10007, bad)

    def test_threeap_mean_within_3c_of_cube(self, m10007):
        # for a c-uniform indicator the 3-AP mean sits within 3c of density^3
        a = k.quadratic_level_set(m10007, 0.05)
        c = k.uniformity(k.dft(a))
        density = k.signal_stats(a).mean
        threeap = k.apk_mean_zn([a, a, a]).value
        assert abs(threeap - density**3) <= 3.0 * c


class TestExpansionIdentityAt1201:
    def test_256_term_regrouping(self):
        m = k.make_modulus(1201)
        f = k.build_interval_signal(m)
        g = k.build_modulated_signal(m)
        eg = k.apk_mean_zn([g] * 4).value
        acc = 0j
        for pc in k.classify_patterns().all_patterns:
            acc += k.modulated_ap4_mean(f, (pc.u, pc.v, pc.w))
        assert abs(acc - eg) <= 1e-12 * abs(eg)


class TestExpansionIdentityAt10007:
    def test_256_term_regrouping(self, f10007, g10007):
        # the 256 modulated means of F, on the support-pair route, sum to E[G^4]
        eg = k.apk_mean_zn([g10007] * 4).value
        acc = sum(
            k.modulated_ap4_mean(f10007, (pc.u, pc.v, pc.w))
            for pc in k.classify_patterns().all_patterns
        )
        assert abs(acc - eg) <= 1e-12 * abs(eg)
