"""Dyadic decomposition, Besov norms, Bony calculus, and commutators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusns import spectral as sp
from torusns import littlewood_paley as lp

INF = math.inf


@pytest.fixture(scope="module")
def grid():
    return sp.TorusGrid(2, 32)


@pytest.fixture(scope="module")
def part(grid):
    return lp.build_partition(grid)


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(99)


class TestPartition:
    def test_partition_of_unity(self, part):
        assert part.partition_residual() < 1e-12

    def test_equal_grids_share_one_filter_stack(self):
        a = lp.build_partition(sp.TorusGrid(2, 32))
        b = lp.build_partition(sp.TorusGrid(2, 32))
        assert a._filters is b._filters and not a._filters.flags.writeable
        assert a.q_max == 4  # 0.75 * 2^4 <= max |k| = 16 sqrt(2) < 0.75 * 2^5

    def test_negative_low_pass_is_one_shared_zero(self, part, grid, rng):
        zero = part.low_pass_filter(-1)
        assert zero is part.low_pass_filter(-3) is lp.build_partition(grid).low_pass_filter(-1)
        assert not zero.flags.writeable and not zero.any()
        assert not lp.low_pass(part, -1, sp.random_field(grid, rng)).coeffs.any()

    def test_shell_disjointness(self, part, grid):
        # phi(2^-q xi) * phi(2^-q' xi) = 0 pointwise for |q - q'| >= 2
        for q in range(0, part.q_max - 1):
            prod = part.block_filter(q) * part.block_filter(q + 2)
            assert np.max(np.abs(prod)) == 0.0

    def test_block_below_range_is_zero(self, part, grid, rng):
        f = sp.random_field(grid, rng)
        assert sp.lebesgue_norm(lp.dyadic_block(part, -2, f), INF) == 0.0

    def test_too_small_grid_rejected(self):
        with pytest.raises(ValueError):
            sp.TorusGrid(2, 4)

    def test_blocks_of_cos4x(self, part, grid):
        f = sp.ScalarField.from_function(grid, lambda x, y: np.cos(4 * x))
        active = [q for q in part.active_blocks
                  if sp.lebesgue_norm(lp.dyadic_block(part, q, f), INF) > 1e-13]
        assert active == [1, 2]  # shells containing |xi| = 4
        total = sp.ScalarField.zero(grid)
        for q in part.active_blocks:
            total = total + lp.dyadic_block(part, q, f)
        assert sp.lebesgue_norm(total - f, INF) < 1e-13

    def test_block_orthogonality_on_random_field(self, part, grid, rng):
        f = sp.random_field(grid, rng)
        b = lp.dyadic_block(part, 1, lp.dyadic_block(part, 3, f))
        assert sp.lebesgue_norm(b, INF) == 0.0

    def test_low_pass_telescopes_to_identity(self, part, grid, rng):
        f = sp.random_field(grid, rng)
        s = lp.low_pass(part, part.q_max + 1, f)
        assert sp.lebesgue_norm(s - f, INF) < 1e-13

    def test_reconstruction_ensemble(self, part, grid):
        for seed in range(20):
            f = sp.random_field(grid, np.random.default_rng(seed))
            total = sp.ScalarField.zero(grid)
            for q in part.active_blocks:
                total = total + lp.dyadic_block(part, q, f)
            assert sp.lebesgue_norm(total - f, INF) < 1e-13

    def test_almost_orthogonality(self, part, grid, rng):
        f = sp.random_field(grid, rng)
        total = sum(sp.lebesgue_norm(lp.dyadic_block(part, q, f), 2) ** 2
                    for q in part.active_blocks)
        l2sq = sp.lebesgue_norm(f, 2) ** 2
        assert l2sq <= 3.0 * total and l2sq >= total / 3.0


class TestBesovNorm:
    def test_zero_field(self, part, grid):
        assert lp.besov_norm(part, sp.ScalarField.zero(grid), lp.BesovSpec(1.0, 2, 2)) == 0.0

    def test_single_block_field(self, part, grid, rng):
        # spectrum confined to one shell: norm = 2^{qs} ||u||_p up to neighbours
        raw = sp.random_field(grid, rng)
        f = lp.dyadic_block(part, 2, raw)
        spec = lp.BesovSpec(0.7, 2, INF)
        norm = lp.besov_norm(part, f, spec)
        # brute-force sum of the definition
        vals = [2.0 ** (q * spec.s) * sp.lebesgue_norm(lp.dyadic_block(part, q, f), 2)
                for q in part.active_blocks]
        assert abs(norm - max(vals)) < 1e-13
        assert norm <= 2.0 ** (3 * spec.s) * sp.lebesgue_norm(f, 2) * 3

    def test_mean_folded_into_lowest_block(self, part, grid):
        c = sp.ScalarField.constant(grid, 2.5)
        spec = lp.BesovSpec(1.0, INF, 1)
        # only the q = -1 block sees a constant; weight 2^{-s}
        assert abs(lp.besov_norm(part, c, spec) - 2.5 * 0.5) < 1e-13

    def test_monotonicity_in_s_and_r(self, part, grid, rng):
        f = sp.random_field(grid, rng)
        n1 = lp.besov_norm(part, f, lp.BesovSpec(0.5, 2, 2))
        n2 = lp.besov_norm(part, f, lp.BesovSpec(1.0, 2, 1))
        assert n1 <= n2 + 1e-12
        n3 = lp.besov_norm(part, f, lp.BesovSpec(0.5, 2, INF))
        assert n3 <= n1 + 1e-12

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 500))
    def test_norm_axioms(self, part, grid, seed):
        r = np.random.default_rng(seed)
        f = sp.random_field(grid, r)
        g = sp.random_field(grid, r)
        spec = lp.BesovSpec(0.8, 2, 2)
        nf, ng = lp.besov_norm(part, f, spec), lp.besov_norm(part, g, spec)
        assert abs(lp.besov_norm(part, 2.0 * f, spec) - 2.0 * nf) < 1e-10 * max(1, nf)
        assert lp.besov_norm(part, f + g, spec) <= nf + ng + 1e-10

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            lp.BesovSpec(0.0, 0.5, 2)


class TestBony:
    def test_constant_second_factor(self, part, grid, rng):
        u = sp.random_field(grid, rng)
        v = sp.ScalarField.constant(grid, 2.0)
        tuv, tvu, rem = lp.bony_decompose(part, u, v)
        assert sp.lebesgue_norm(tuv, INF) < 1e-14
        ref = sp.multiply(u, v)
        assert sp.lebesgue_norm(tvu + rem - ref, INF) < 1e-12

    def test_reconstruction_random_pairs(self, part, grid):
        for seed in range(10):
            r = np.random.default_rng(seed)
            u, v = sp.random_field(grid, r), sp.random_field(grid, r)
            tuv, tvu, rem = lp.bony_decompose(part, u, v)
            ref = sp.multiply(u, v)
            assert sp.lebesgue_norm(tuv + tvu + rem - ref, INF) < 1e-10

    def test_low_pass_equals_running_block_sum(self, part, grid, rng):
        """The fused paraproduct takes S_{q-1} as a running sum over the block
        stack; the stack rows are the blocks, and the sums are S_q."""
        f = sp.random_field(grid, rng)
        stack = np.stack(lp._block_stack(part, f).rows)
        assert stack.shape == (part.q_max + 2,) + grid.shape
        running = np.zeros(grid.shape)
        for q in range(part.q_max + 3):
            block = lp.dyadic_block(part, q - 1, f).samples
            if q < len(stack):
                assert np.array_equal(stack[q], block)
            running = running + block
            low = lp.low_pass(part, q, f).samples
            assert np.max(np.abs(low - running)) <= 1e-14 * np.max(np.abs(f.samples))

    def test_high_low_product_lands_in_paraproduct(self):
        grid = sp.TorusGrid(2, 128)
        part = lp.build_partition(grid)
        u = sp.ScalarField.from_function(grid, lambda x, y: np.cos(32 * x))
        v = sp.ScalarField.from_function(grid, lambda x, y: np.cos(x))
        tuv, tvu, rem = lp.bony_decompose(part, u, v)
        ref = sp.multiply(u, v)
        mass = sp.lebesgue_norm(ref, 2) ** 2
        assert sp.lebesgue_norm(tvu, 2) ** 2 >= 0.99 * mass


class TestMultiplierCommutator:
    @staticmethod
    def gauss(grid, lam=2.0):
        return np.exp(-grid.k_squared / lam ** 2)

    def test_constant_a(self, grid, rng):
        a = sp.ScalarField.constant(grid, 3.0)
        comm = lp.multiplier_commutator(self.gauss(grid), a, sp.random_field(grid, rng))
        assert sp.lebesgue_norm(comm, INF) < 1e-12

    def test_zero_b(self, grid):
        a = sp.ScalarField.from_function(grid, lambda x, y: np.sin(x))
        comm = lp.multiplier_commutator(self.gauss(grid), a, sp.ScalarField.zero(grid))
        assert sp.lebesgue_norm(comm, INF) == 0.0

    def test_non_finite_symbol_rejected(self, grid, rng):
        """The symbol is checked where it enters, and the first frequency
        at which it is not finite is named."""
        symbol = self.gauss(grid).copy()
        symbol[0, 3] = np.nan
        with pytest.raises(ValueError, match=r"non-finite at grid frequency \(0, 3\)"):
            lp.multiplier_commutator(symbol, sp.random_field(grid, rng),
                                     sp.random_field(grid, rng))

    def test_decay_law_band(self):
        g = sp.TorusGrid(2, 256)
        ratios = lp.lemma1_scaling_study(g, k_range=range(7), ensemble_size=6, seed=5)
        vals = list(ratios.values())
        assert max(vals) / min(vals) < 4.0


class TestTransportCommutator:
    def test_constant_velocity(self, part, grid, rng):
        u = sp.VectorField.from_components([sp.ScalarField.constant(grid, 1.0),
                                            sp.ScalarField.constant(grid, -0.5)])
        a = sp.random_field(grid, rng)
        for q in (0, 2):
            rq = lp.transport_commutator(part, u, a, q)
            assert sp.lebesgue_norm(rq, INF) < 1e-12

    def test_eight_way_split_sums_exactly(self, part, grid):
        for seed in range(4):
            r = np.random.default_rng(seed)
            u = sp.random_vector_field(grid, r)
            a = sp.random_field(grid, r)
            for q in part.active_blocks:
                rq = lp.transport_commutator(part, u, a, q)
                pieces = lp.eight_way_split(part, u, a, q)
                total = sp.ScalarField.zero(grid)
                for piece in pieces:
                    total = total + piece
                assert sp.lebesgue_norm(total - rq, INF) < 1e-10

    def test_out_of_range_q(self, part, grid, rng):
        u = sp.random_vector_field(grid, rng)
        a = sp.random_field(grid, rng)
        with pytest.raises(ValueError):
            lp.transport_commutator(part, u, a, part.q_max + 1)


class TestEightWayFailsClosed:
    """A non-finite coefficient inside the dealiased band, of a or of one
    component of u, reaches every eight-way piece and the commutator, also
    at the blocks where skipped products could hide it."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["a", "u1", "u2"])
    @pytest.mark.parametrize("q", [-1, 2, "top"])
    def test_every_piece_is_nan_on_the_kept_band(self, part, grid, bad, where, q):
        r = np.random.default_rng(17)
        a, u = sp.random_field(grid, r), sp.random_vector_field(grid, r)
        if where == "a":
            coeffs = a.coeffs.copy()
            coeffs[2, 3] = bad
            a = a.with_coeffs(coeffs)
        else:
            coeffs = u.coeffs.copy()
            coeffs[int(where[1]) - 1, 2, 3] = bad
            u = u.with_coeffs(coeffs)
        q = part.q_max if q == "top" else q
        keep = grid.dealias_mask()
        with np.errstate(invalid="ignore", over="ignore"):
            results = lp.eight_way_split(part, u, a, q)
            results.append(lp.transport_commutator(part, u, a, q))
        for n, piece in enumerate(results, start=1):
            assert np.all(np.isnan(piece.coeffs[keep])), f"piece {n}"


class TestProductLaws:
    def test_symmetric_law_single_mode(self, part, grid):
        u = sp.ScalarField.from_function(grid, lambda x, y: np.cos(x))
        spec = lp.BesovSpec(1.0, 2, 2)
        uv = sp.multiply(u, u)
        num = lp.besov_norm(part, uv, spec)
        den = 2 * sp.lebesgue_norm(u, INF) * lp.besov_norm(part, u, spec)
        assert math.isfinite(num / den)

    def test_embedding_report(self, part):
        rep = lp.embedding_estimator(part, 25, 1.0, 2, 4, 2, seed=0)
        rep2 = lp.embedding_estimator(part, 50, 1.0, 2, 4, 2, seed=0)
        # the two sup ratios differ by less than half the larger one
        assert rep.sup_ratio > 0
        assert abs(rep.sup_ratio - rep2.sup_ratio) < 0.5 * max(rep.sup_ratio, rep2.sup_ratio)
        with pytest.raises(ValueError):
            lp.embedding_estimator(part, 4, 1.0, 4, 2, 2)


# ---------------------------------------------------------------------------
# block inverses pruned to their columns against the full-width transform
# ---------------------------------------------------------------------------

def _full_width_rows(part, f, blocks=None):
    """What each transformed row of a block stack must equal bit for bit:
    the full-width inverse of the filtered coefficients."""
    blocks = part.active_blocks if blocks is None else blocks
    return [sp.to_samples(part.grid, f.coeffs * part.block_filter(q)) for q in blocks]


def _same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


class TestPrunedBlockInverse:
    GRIDS = [(2, 32), (2, 128), (3, 16), (3, 32)]

    @pytest.mark.parametrize("dim, n", [(2, 128), (3, 32)])
    def test_widths_are_the_filter_column_supports(self, dim, n):
        grid = sp.TorusGrid(dim, n)
        widths = lp._filter_widths(grid)
        want = {(2, 128): [2, 3, 6, 11, 22, 43, 65, 65],
                (3, 32): [2, 3, 6, 11, 17, 17, 17]}[dim, n]
        assert widths.tolist() == want
        for filt, w in zip(lp._filter_stack(grid), widths):
            assert not filt[..., w:].any() and filt[..., w - 1].any()

    @pytest.mark.parametrize("dim, n", GRIDS, ids=lambda v: str(v))
    @pytest.mark.parametrize("dealiased", [False, True], ids=["raw", "dealiased"])
    @pytest.mark.parametrize("kind", ["scalar", "vector"])
    def test_rows_equal_full_width_transforms(self, dim, n, dealiased, kind):
        """Sign bits included, so the zeros of the work buffer beyond a row's
        columns stand for the signed zeros of the full-width product."""
        grid = sp.TorusGrid(dim, n)
        part = lp.build_partition(grid)
        r = np.random.default_rng(n + dim)
        draw = sp.random_field if kind == "scalar" else sp.random_vector_field
        f = draw(grid, r, slope=1.2, max_wavenumber=n // 2)
        if dealiased:
            f = sp.dealias(f)
        stack = lp._block_stack(part, f)
        # the dealiased band stops short of the top shell on a 3-D grid
        assert (stack.reach > 0).sum() >= part.q_max + 1 - (dealiased and dim == 3)
        for q, r, got, want in zip(part.active_blocks, stack.reach, stack.rows,
                                   _full_width_rows(part, f)):
            assert _same_bits(got, want) if r != 0 else not got.any(), q

    @pytest.mark.parametrize("dim, n", GRIDS, ids=lambda v: str(v))
    def test_block_subset_in_any_order(self, dim, n):
        """Rows of a subset, in the order asked, as `_sup_besov` asks for
        them one at a time, and of a block-limited field, whose rows stop at
        the field's own columns."""
        grid = sp.TorusGrid(dim, n)
        part = lp.build_partition(grid)
        f = sp.dealias(sp.random_field(grid, np.random.default_rng(5)))
        top = part.q_max
        for blocks in ([top, -1, 1, 0], [2, top - 1, -1], [1], [top]):
            stack = lp._block_stack(part, f, blocks)
            for got, want in zip(stack.rows, _full_width_rows(part, f, blocks)):
                assert _same_bits(got, want), blocks
        low = lp.low_pass(part, 2, f)  # Delta_{-1} .. Delta_1: rows -1 .. 2 transformed
        stack = lp._block_stack(part, low, [2, 0, -1, 1, top])
        for q, r, got, want in zip([2, 0, -1, 1, top], stack.reach, stack.rows,
                                   _full_width_rows(part, low, [2, 0, -1, 1, top])):
            assert (r != 0) == (q <= 2)
            if r != 0:
                assert _same_bits(got, want), q

    def test_lp_ensemble_member_equals_full_width_reference(self, monkeypatch):
        """The Bony pieces, the commutator and the eight pieces of one
        ensemble member at 2-D 128^2, bit for bit, against the same kernels
        with every block transformed at full width."""
        grid = sp.TorusGrid(2, 128)
        part = lp.build_partition(grid)
        r = np.random.default_rng(0)
        slope = 1.0 + r.random()
        a, b = (sp.random_field(grid, r, slope=slope) for _ in range(2))
        u = sp.random_vector_field(grid, r, slope=slope)
        q = int(r.integers(1, part.q_max + 1))

        def member():
            return [*lp.bony_decompose(part, a, b), lp.transport_commutator(part, u, a, q),
                    *lp.eight_way_split(part, u, a, q)]

        got = member()
        monkeypatch.setattr(lp, "_block_inverse", lambda grid, coeffs, filt, width, work:
                            sp.to_samples(grid, coeffs * filt))
        want = member()
        for n, (g, w) in enumerate(zip(got, want)):
            assert _same_bits(g.coeffs, w.coeffs), n

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("column", [15, 16])
    def test_nonfinite_coefficient_beyond_a_low_block_reaches_every_row(self, bad, column):
        """At 2-D 32^2 the rows q = -1 .. 2 stop short of column 15; a bad
        coefficient there still makes each of them non-finite, as the
        full-width product 0 * NaN (or 0 * inf) would."""
        grid = sp.TorusGrid(2, 32)
        part = lp.build_partition(grid)
        assert lp._filter_widths(grid)[:4].max() < 15
        coeffs = sp.random_field(grid, np.random.default_rng(1)).coeffs.copy()
        coeffs[3, column] = bad
        f = sp.ScalarField(grid, coeffs)
        with np.errstate(invalid="ignore", over="ignore"):
            stack = lp._block_stack(part, f)
            want = _full_width_rows(part, f)
        assert len(stack.rows) == part.q_max + 2
        for q, got, ref in zip(part.active_blocks, stack.rows, want):
            assert not np.isfinite(got).any(), q
            assert np.array_equal(got, ref, equal_nan=True), q


# ---------------------------------------------------------------------------
# fused Bony kernels against the per-block loop: one dealiased transform per
# block product, S_{q-1} from its own filter
# ---------------------------------------------------------------------------

def _ref_blocks(part, f):
    zero = np.zeros(part.grid.shape)
    blocks = {q: lp.dyadic_block(part, q, f).samples for q in part.active_blocks}
    return lambda q: blocks.get(q, zero)


def _ref_product(grid, a, b):
    return sp.dealias(sp.ScalarField.from_samples(grid, a * b))


def ref_paraproduct(part, low, high):
    grid = part.grid
    hb = _ref_blocks(part, high)
    out = sp.ScalarField.zero(grid)
    for q in range(1, part.q_max + 1):
        out = out + _ref_product(grid, lp.low_pass(part, q - 1, low).samples, hb(q))
    return out


def ref_remainder(part, u, v):
    grid = part.grid
    ub, vb = _ref_blocks(part, u), _ref_blocks(part, v)
    out = sp.ScalarField.zero(grid)
    for q in part.active_blocks:
        out = out + _ref_product(grid, ub(q), vb(q - 1) + vb(q) + vb(q + 1))
    return out


def ref_eight_way_split(part, u, a, q):
    grid = part.grid
    u, a = sp.dealias(u), sp.dealias(a)
    low_u = lp.low_pass(part, 0, u)
    high_u = u - low_u
    div_high = sp.divergence(high_u)
    block_a = lp.dyadic_block(part, q, a)
    dq = lambda f: lp.dyadic_block(part, q, f)  # noqa: E731
    pieces = [sp.ScalarField.zero(grid) for _ in range(8)]
    for k in range(grid.dim):
        u1k, s0k = high_u.component(k), low_u.component(k)
        da_k, dblock_k = sp.partial(a, k), sp.partial(block_a, k)
        pieces[0] += ref_paraproduct(part, u1k, dblock_k) \
            - dq(ref_paraproduct(part, u1k, da_k))
        pieces[1] += ref_paraproduct(part, dblock_k, u1k)
        pieces[2] -= dq(ref_paraproduct(part, da_k, u1k))
        pieces[3] += sp.partial(ref_remainder(part, u1k, block_a), k)
        pieces[5] -= sp.partial(dq(ref_remainder(part, u1k, a)), k)
        pieces[7] += sp.multiply(s0k, dblock_k) - dq(sp.multiply(s0k, da_k))
    pieces[4] = -ref_remainder(part, div_high, block_a)
    pieces[6] = dq(ref_remainder(part, div_high, a))
    return pieces


def _assert_close(got, want, what):
    scale = sp.lebesgue_norm(want, INF)
    err = sp.lebesgue_norm(got - want, INF)
    assert err <= 1e-13 * scale, f"{what}: {err:.3e} against sup {scale:.3e}"


class TestFusedKernels:
    @pytest.fixture(scope="class", params=[(2, 64), (3, 16)], ids=["2d64", "3d16"])
    def case(self, request):
        grid = sp.TorusGrid(*request.param)
        r = np.random.default_rng(7)
        return (lp.build_partition(grid), sp.random_field(grid, r, slope=1.2),
                sp.random_field(grid, r, slope=1.2), sp.random_vector_field(grid, r))

    def test_bony_pieces_match_block_loop(self, case):
        part, u, v, _ = case
        refs = (ref_paraproduct(part, u, v), ref_paraproduct(part, v, u),
                ref_remainder(part, u, v))
        public = (lp.paraproduct(part, u, v), lp.paraproduct(part, v, u),
                  lp.remainder(part, u, v))
        for name, got, via_bony, want in zip(("T_u v", "T_v u", "R(u, v)"), public,
                                             lp.bony_decompose(part, u, v), refs):
            _assert_close(got, want, name)
            _assert_close(via_bony, want, f"bony {name}")

    def test_eight_way_pieces_match_block_loop(self, case):
        part, a, _, u = case
        for q in (-1, 1, part.q_max - 1, part.q_max):
            got = lp.eight_way_split(part, u, a, q)
            want = ref_eight_way_split(part, u, a, q)
            for n, (g, w) in enumerate(zip(got, want), start=1):
                _assert_close(g, w, f"q={q} piece {n}")


class TestTransformCount:
    """Each Bony piece costs one forward transform; per-block transforms
    must not come back."""

    @pytest.fixture(scope="class")
    def case(self):
        grid = sp.TorusGrid(2, 128)
        r = np.random.default_rng(3)
        return (lp.build_partition(grid), sp.random_field(grid, r),
                sp.random_field(grid, r), sp.random_vector_field(grid, r))

    def test_paraproduct(self, case, fft_calls):
        part, a, b, _ = case
        lp.paraproduct(part, a, b)
        assert fft_calls["irfftn"] <= 2 * (part.q_max + 2)
        assert fft_calls["rfftn"] == 1

    def test_bony_decompose_builds_two_stacks(self, case, fft_calls):
        part, a, b, _ = case
        lp.bony_decompose(part, a, b)
        assert fft_calls["irfftn"] <= 2 * (part.q_max + 2) == 16
        assert fft_calls["rfftn"] == 3

    def test_bony_pieces_equal_separate_calls(self, case):
        part, a, b, _ = case
        separate = (lp.paraproduct(part, a, b), lp.paraproduct(part, b, a),
                    lp.remainder(part, a, b))
        for got, want in zip(lp.bony_decompose(part, a, b), separate):
            assert got.coeffs.tobytes() == want.coeffs.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("which", [0, 1])
    def test_nonfinite_coefficient_reaches_every_bony_piece(self, case, bad, which):
        part, a, b, _ = case
        coeffs = a.coeffs.copy()
        coeffs[0, 1] = bad
        factors = [a, b]
        factors[which] = a.with_coeffs(coeffs)
        keep = part.grid.dealias_mask()
        with np.errstate(invalid="ignore"):
            pieces = lp.bony_decompose(part, *factors)
        for piece in pieces:
            assert np.all(np.isnan(piece.coeffs[keep]))

    def test_eight_way_split(self, case, fft_calls):
        part, a, _, u = case
        lp.eight_way_split(part, u, a, 2)
        # stacks: 8 rows of a, 3 of Delta_q a, and per component 8 of u1^k,
        # 8 of d_k a and 3 of d_k Delta_q a; then 2 samples of S_0 u^k.
        # Forward: one per physical sum (8) and per k for pieces 4 and 6.
        assert fft_calls["irfftn"] == 8 + 3 + 2 * (8 + 8 + 3) + 2 == 51
        assert fft_calls["rfftn"] == 12
        # a block inverse is one call of one field, with one c2c pass before it
        assert fft_calls["irfftn_fields"] == 51 and fft_calls["c2c"] == 51 - 2

    def test_transport_commutator(self, case, fft_calls):
        part, a, _, u = case
        lp.transport_commutator(part, u, a, 2)
        # samples of u^k, d_k Delta_q a and d_k a; one forward per term
        assert fft_calls["irfftn"] == 6
        assert fft_calls["rfftn"] == 2

    def test_paraproduct_with_empty_rows_keeps_a_nonfinite_factor(self, case):
        """A product with a row left at zero is skipped only while the other
        factor is finite: 0 * NaN is NaN, and T_low high must show it."""
        part, a, b, _ = case
        coeffs = a.coeffs.copy()
        coeffs[0, 1] = np.nan
        high = lp.dyadic_block(part, -1, b)  # rows -1 and 0 only: S_{q-1} meets none
        keep = part.grid.dealias_mask()
        with np.errstate(invalid="ignore"):
            piece = lp.paraproduct(part, a.with_coeffs(coeffs), high)
        assert np.all(np.isnan(piece.coeffs[keep]))
        assert not np.any(lp.paraproduct(part, a, high).coeffs)

    @pytest.mark.parametrize("q", [-1, 2, 6])
    def test_filtered_field_transforms_its_nonzero_blocks_only(self, case, fft_calls, q):
        part, a, _, u = case
        for f in (a, u):
            block = lp.dyadic_block(part, q, f)
            fft_calls.clear()
            got = np.stack(lp._block_stack(part, block).rows)
            assert 1 <= fft_calls["irfftn"] <= 3 and fft_calls["rfftn"] == 0
            want = np.stack([sp.to_samples(part.grid, block.coeffs * filt)
                             for filt in part._filters])
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_coefficient_reaches_every_block(self, case, bad):
        part, a, _, _ = case
        coeffs = lp.dyadic_block(part, 2, a).coeffs.copy()
        coeffs[0, 1] = bad
        with np.errstate(invalid="ignore"):
            stack = np.stack(lp._block_stack(part, a.with_coeffs(coeffs)).rows)
            want = np.stack([sp.to_samples(part.grid, coeffs * filt)
                             for filt in part._filters])
        assert np.array_equal(stack, want, equal_nan=True)
        assert not np.any(np.all(np.isfinite(stack), axis=(1, 2)))

    def test_sup_besov_norm_transforms_unsettled_blocks_only(self, case, fft_calls):
        part = case[0]
        smooth = sp.random_field(part.grid, np.random.default_rng(3), slope=3.0)
        fft_calls.clear()
        lp.besov_norm(part, smooth, lp.BesovSpec(0.0, INF, INF))
        # 3 of the 8 blocks; every block at the parent
        assert 1 <= fft_calls["irfftn"] <= 4 < part.q_max + 2
        assert fft_calls["rfftn"] == 0


# ---------------------------------------------------------------------------
# sup-norm Besov norms through the l^1 block bound
# ---------------------------------------------------------------------------

_BOUND_PARTS = {dim: lp.build_partition(sp.TorusGrid(dim, m))
                for dim, m in ((2, 32), (3, 16))}


def _bound_field(grid, seed, spectrum, slope):
    rng = np.random.default_rng(seed)
    if spectrum == "flat_dyadic":
        return sp.random_field(grid, rng, flat_dyadic=True)
    # "nyquist" keeps every mode up to M/2, so the Nyquist planes are filled
    top = grid.n // 2 if spectrum == "nyquist" else None
    return sp.random_field(grid, rng, slope=slope, max_wavenumber=top)


def _l1_reference(part, f):
    """sum_k |phi_l(k) c_k| over the full lattice, from numpy's complex
    transform of the samples and the radial profiles."""
    grid = part.grid
    full = np.abs(np.fft.fftn(f.samples)) / grid.size
    k = np.fft.fftfreq(grid.n, 1.0 / grid.n)
    radius = np.sqrt(sum(x ** 2 for x in np.meshgrid(*[k] * grid.dim, indexing="ij")))
    filters = [lp.chi_profile(radius)] + [lp.phi_profile(radius / 2.0 ** q)
                                          for q in range(part.q_max + 1)]
    return np.array([np.sum(phi * full) for phi in filters])


class TestSupBesov:
    @settings(max_examples=40, deadline=None)
    @given(dim=st.sampled_from([2, 3]), seed=st.integers(0, 2 ** 16),
           spectrum=st.sampled_from(["slope", "nyquist", "flat_dyadic"]),
           slope=st.floats(0.0, 3.0))
    def test_block_sup_within_l1_bound(self, dim, seed, spectrum, slope):
        part = _BOUND_PARTS[dim]
        f = _bound_field(part.grid, seed, spectrum, slope)
        bounds = lp._block_bounds(part, f)
        # the reference also sums the transform's round-off outside the band
        assert np.allclose(bounds, _l1_reference(part, f), rtol=1e-12,
                           atol=1e-13 * np.max(bounds))
        sups = lp.block_norms(part, f, INF)
        assert np.all(sups <= bounds * (1 + 1e-13)), sups / bounds

    @settings(max_examples=40, deadline=None)
    @given(dim=st.sampled_from([2, 3]), seed=st.integers(0, 2 ** 16),
           spectrum=st.sampled_from(["slope", "nyquist", "flat_dyadic"]),
           slope=st.floats(0.0, 3.0), s=st.floats(-1.0, 2.0))
    def test_pruned_norm_is_the_full_block_max(self, dim, seed, spectrum, slope, s):
        part = _BOUND_PARTS[dim]
        f = _bound_field(part.grid, seed, spectrum, slope)
        spec = lp.BesovSpec(s, INF, INF)
        full = lp.besov_from_block_norms(lp.block_norms(part, f, INF), spec)
        assert lp.besov_norm(part, f, spec) == full
        # a floor just below the max leaves only the maximal block to visit
        for floor in (0.5 * full, (1 - 1e-9) * full, full, 2.0 * full):
            assert lp._floored_besov(part, f, spec, floor) == max(floor, full)

    @pytest.mark.parametrize("k", [(3, 0), (5, 7), (16, 0), (16, 16)])
    def test_tight_bound_of_one_mode_still_visits_its_block(self, part, grid, k):
        """A single cosine (Nyquist included) meets its bound with equality,
        so a floor just below its norm must not settle the block."""
        f = sp.ScalarField.from_function(grid, lambda x, y: np.cos(k[0] * x + k[1] * y))
        sups = lp.block_norms(part, f, INF)
        assert np.allclose(sups, lp._block_bounds(part, f), rtol=1e-13, atol=1e-13)
        full = float(np.max(sups))
        spec = lp.BesovSpec(0.0, INF, INF)
        assert lp._floored_besov(part, f, spec, (1 - 1e-9) * full) == full

    def test_nan_coefficient_or_floor_gives_nan(self, part, grid, rng):
        f = sp.random_field(grid, rng)
        spec = lp.BesovSpec(0.5, INF, INF)
        coeffs = f.coeffs.copy()
        coeffs[3, 4] = complex(math.nan, 0.0)
        assert math.isnan(lp.besov_norm(part, f.with_coeffs(coeffs), spec))
        assert math.isfinite(lp.besov_norm(part, f, spec))
        assert math.isnan(lp._floored_besov(part, f, spec, math.nan))


class TestParsevalBlockNorms:
    """L^2 block norms come from the coefficients alone and agree with the
    grid quadrature of the block samples."""

    @pytest.fixture(scope="class", params=[(2, 128), (3, 32)], ids=["2d128", "3d32"])
    def part(self, request):
        return lp.build_partition(sp.TorusGrid(*request.param))

    @pytest.mark.parametrize("kind", ["scalar", "vector"])
    @pytest.mark.parametrize("subset", [False, True])
    def test_matches_quadrature_of_block_samples(self, part, kind, subset):
        grid, r = part.grid, np.random.default_rng(11)
        f = sp.random_field(grid, r) if kind == "scalar" else sp.random_vector_field(grid, r)
        blocks = [part.q_max, -1, 2] if subset else None
        got = lp.block_norms(part, f, 2, blocks)
        want = [sp.sample_norm(grid, row, 2, f.rank)
                for row in lp._block_stack(part, f, blocks).rows]
        assert len(got) == (3 if subset else part.q_max + 2)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    def test_zero_field_and_nan_coefficient(self, part):
        grid = part.grid
        assert np.all(lp.block_norms(part, sp.ScalarField.zero(grid), 2) == 0.0)
        coeffs = sp.random_field(grid, np.random.default_rng(5)).coeffs.copy()
        coeffs[(0,) * (grid.dim - 1) + (1,)] = np.nan
        assert np.all(np.isnan(lp.block_norms(part, sp.ScalarField(grid, coeffs), 2)))

    @pytest.mark.parametrize("p", [2, 3, INF])
    @pytest.mark.parametrize("q", [-2, "top"])
    def test_block_outside_the_active_range_is_rejected(self, part, p, q):
        f = sp.random_field(part.grid, np.random.default_rng(5))
        with pytest.raises(ValueError, match="outside the active range"):
            lp.block_norms(part, f, p, [part.q_max + 1 if q == "top" else q])

    def test_l2_besov_norm_takes_no_transform(self, part, fft_calls):
        f = sp.random_field(part.grid, np.random.default_rng(5))
        fft_calls.clear()
        assert lp.besov_norm(part, f, lp.BesovSpec(0.5, 2, 2)) > 0
        assert fft_calls["rfftn"] == fft_calls["irfftn"] == 0
