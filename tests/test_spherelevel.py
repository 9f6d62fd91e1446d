"""Sphere restriction: frames, level projection, spectrum and recurrences."""

import csv
import math

import numpy as np
import pytest

from isopar import spherelevel
from isopar.cli import write_csv
from isopar.errors import ConditioningError, FocalPointError, ProjectionError
from isopar.polyfam import (
    cm_residuals,
    eval_F,
    eval_hessian,
    eval_jet,
    make_cartan,
    make_fkm,
    make_ot,
)
from isopar.spherelevel import (
    COMPLEX_STEP,
    SAMPLE_BLOCK,
    cotangent_shift,
    frame_at,
    in_blocks,
    level_power_sums,
    level_project,
    munzner_check,
    munzner_q1_closed,
    orthonormal_complement,
    qk_recurrence_check,
    recurrence_table,
    regular_sphere_points,
    rhobar_recurrence_check,
    seeded_streams,
    transnormal_residuals,
)
from isopar.symmat import SymmetricMatrix, cluster_starts, eigensolve, rho_k

_cache = {}


def family(name):
    if name not in _cache:
        _cache[name] = {
            "cartan1": lambda: make_cartan(1),
            "cartan2": lambda: make_cartan(2),
            "cartan8": lambda: make_cartan(8),
            "fkm24": lambda: make_fkm(2, 4),
            "ot1": lambda: make_ot(1),
            "ot3": lambda: make_ot(3),
        }[name]()
    return _cache[name]


FAMILY_NAMES = ["cartan1", "cartan2", "fkm24", "ot1"]


class TestSampling:
    def test_regular_points_deterministic_unit(self):
        a = regular_sphere_points(family("cartan2"), 10, 3)
        b = regular_sphere_points(family("cartan2"), 10, 3)
        assert np.array_equal(a, b)
        assert np.allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-12)

    def test_different_seed_differs(self):
        fam = family("cartan1")
        assert not np.array_equal(
            regular_sphere_points(fam, 4, 0), regular_sphere_points(fam, 4, 1)
        )

    def test_regular_points_avoid_focal_band(self):
        fam = family("cartan1")
        pts = regular_sphere_points(fam, 30, 11, f_bound=0.8)
        for x in pts:
            assert abs(eval_F(fam, x)) <= 0.8

    def test_regular_points_keep_per_index_streams(self):
        # The sample at index i is the first (i, attempt) draw inside the
        # bound, whatever the other indices needed, and the block
        # normalisation of each round equals the per-row one bit for bit.
        cases = [
            (family("cartan1"), 12, 13, 0.5),
            (family("cartan1"), 40, 2024, 0.9),
            (make_cartan(8), 40, 2025, 0.9),
            (make_ot(3), 40, 8, 0.9),
            (family("fkm24"), 30, 2**40 + 5, 0.3),
            (family("ot1"), 25, 0, 0.2),
            (family("cartan2"), 30, 2**32, 0.7),
            (family("cartan1"), 9, 2**200 + 9, 0.3),
        ]
        for fam, count, seed, bound in cases:
            pts = regular_sphere_points(fam, count, seed, f_bound=bound)
            for i, x in enumerate(pts):
                for attempt in range(64):
                    rng = np.random.default_rng(
                        np.random.SeedSequence(seed, spawn_key=(i, attempt))
                    )
                    v = rng.standard_normal(fam.ambient_dim)
                    v /= np.linalg.norm(v)
                    if abs(eval_F(fam, v)) <= bound:
                        break
                assert np.array_equal(x, v), (fam, seed, i)

    def test_regular_points_one_eval_per_round(self, monkeypatch):
        fam = family("cartan1")
        calls = []

        def counted(P, x):
            calls.append(np.shape(x))
            return eval_F(P, x)

        monkeypatch.setattr(spherelevel, "eval_F", counted)
        regular_sphere_points(fam, 20, 13, f_bound=0.5)
        assert calls[0] == (20, 5)
        # every round only re-draws the indices still pending
        assert all(a[0] >= b[0] for a, b in zip(calls, calls[1:]))
        assert len(calls) < 20

    def test_exhausted_redraws_raise_focal_point_error(self):
        with pytest.raises(FocalPointError, match="focal bands"):
            regular_sphere_points(family("cartan1"), 1, 11, f_bound=-1.0)


# Seeds across the word boundaries of SeedSequence's entropy (one word, two,
# three, seven) and keys up to the largest 32-bit word.
STREAM_SEEDS = [0, 1, 7, 2024, 2025, 2**32 - 1, 2**32, 2**40 + 5, 2**70 + 3, 2**200 + 9]
STREAM_KEYS = [
    [(0, 0), (1, 0), (39, 5), (2**31, 1), (2**32 - 1, 63), (123456789, 17)],
    [(0,), (1,), (49,), (2**32 - 1,)],
    [(3, 4, 5)],
    [()],
]


class TestSeededStreams:
    """seeded_streams rebuilds numpy's per-key SeedSequence streams."""

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_streams_match_seed_sequence(self, seed):
        for keys in STREAM_KEYS:
            streams = list(seeded_streams(seed, np.array(keys, dtype=np.int64)))
            assert len(streams) == len(keys)
            for key, rng in zip(keys, streams):
                oracle = np.random.default_rng(
                    np.random.SeedSequence(seed, spawn_key=key)
                )
                for draw in (
                    lambda g: g.standard_normal(7),
                    lambda g: g.uniform(0.0, 2.0 * np.pi, 3),
                ):
                    assert np.array_equal(draw(rng), draw(oracle)), (seed, key)

    def test_out_of_range_keys_and_seeds_raise(self):
        for keys in ([(2**32, 0)], [(0, 2**32)], [(-1, 0)], [(2**40,)]):
            with pytest.raises(ValueError, match=r"\[0, 2\^32\)"):
                seeded_streams(7, np.array(keys, dtype=np.int64))
        with pytest.raises(ValueError, match="nonnegative"):
            seeded_streams(-1, np.zeros((1, 2), dtype=np.int64))
        with pytest.raises(ValueError, match="integer"):
            seeded_streams(7, np.zeros((1, 2)))

    def test_round_seeds_every_pending_index_at_once(self, monkeypatch):
        calls = []

        def counted(seed, keys):
            calls.append(np.array(keys))
            return seeded_streams(seed, keys)

        monkeypatch.setattr(spherelevel, "seeded_streams", counted)
        regular_sphere_points(family("cartan1"), 20, 13, f_bound=0.5)
        assert calls[0].tolist() == [[i, 0] for i in range(20)]
        for attempt, keys in enumerate(calls):
            assert (keys[:, 1] == attempt).all()


class TestLazyShape:
    """The shape operator is derived and gated on first read."""

    def test_transnormal_frame_leaves_shape_unbuilt(self, monkeypatch):
        fam = family("cartan2")
        frames = []

        def keep(P, x):
            frames.append(frame_at(P, x))
            return frames[-1]

        monkeypatch.setattr(spherelevel, "frame_at", keep)
        transnormal_residuals(fam, regular_sphere_points(fam, 5, 7))
        assert len(frames) == 1
        assert "shape" not in vars(frames[0])

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_shape_on_read_matches_eager_formula(self, name):
        fam = family(name)
        frame = frame_at(fam, regular_sphere_points(fam, 6, 53))
        n = frame.tangent_basis.shape[-2]
        raw = frame.hessian_in(
            np.concatenate([frame.tangent_basis, frame.nu[:, None, :]], axis=-2)
        )
        eager = SymmetricMatrix(
            -raw[..., :n, :n] / np.asarray(frame.grad_norm)[:, None, None]
        )
        assert np.array_equal(frame.shape.entries, eager.entries)
        assert "shape" in vars(frame)
        assert frame.shape is frame.shape

    def test_asymmetric_shape_raises_on_read(self):
        # The tangent block's asymmetry 5e-9 passes hessian_sph's gate
        # (entries below 1), and is 5e-6 against entries of 100 once divided
        # by grad_norm 1e-3, so the shape fails its gate when read.
        d2f = np.zeros((4, 4))
        d2f[1, 2], d2f[2, 1] = 0.1, 0.1 + 5e-9
        eye = np.eye(4)
        frame = spherelevel.SpherePointFrame(
            point=eye[0], f=0.0, df=1e-3 * eye[3], d2f=d2f,
            grad_norm=1e-3, nu=eye[3], tangent_basis=eye[1:3], P=family("cartan1"),
        )
        assert frame.hessian_sph.order == 3
        with pytest.raises(ValueError, match="not symmetric"):
            frame.shape


class TestOrthonormalComplement:
    def test_spans_orthogonal_complement(self):
        # the helper expects orthonormal input rows (as frame_at provides)
        rng = np.random.default_rng(13)
        vecs = np.linalg.qr(rng.standard_normal((7, 2)))[0].T
        basis = orthonormal_complement(vecs)
        assert basis.shape == (5, 7)
        assert np.max(np.abs(basis @ basis.T - np.eye(5))) < 1e-12
        assert np.max(np.abs(basis @ vecs.T)) < 1e-12

    def test_tied_candidate_norms_give_clean_basis(self):
        # Every standard basis vector projects to the same norm here.
        s = np.sqrt(0.5)
        vecs = np.array([[s, s, 0.0, 0.0], [0.0, 0.0, s, s]])
        basis = orthonormal_complement(vecs)
        assert basis.shape == (2, 4)
        assert np.max(np.abs(basis @ basis.T - np.eye(2))) < 1e-14
        assert np.max(np.abs(basis @ vecs.T)) < 1e-14

    def test_rank_deficient_input_raises(self):
        row = np.array([0.6, 0.8, 0.0, 0.0])
        with pytest.raises(ConditioningError, match="rank-deficient"):
            orthonormal_complement(np.vstack([row, row]))

    def test_nan_rows_raise(self):
        with pytest.raises(ConditioningError, match="rank-deficient"):
            orthonormal_complement(np.full((2, 6), np.nan))


def frame_invariants(frame):
    """Max-abs residuals of the five frame invariants, over a frame or a
    whole stack, from the frame's fields: the point is unit, the spherical
    gradient df - g f x is tangent to the sphere, the spherical Hessian has
    no tangent-normal entry, its normal entry is b'(f)/2 = -g^2 f, and
    |grad f|^2 = b(f) = g^2 (1 - f^2)."""
    g, f = frame.P.g, np.asarray(frame.f)
    n = frame.tangent_basis.shape[-2]
    hs = frame.hessian_sph.entries
    grad_sph = frame.df - g * f[..., None] * frame.point
    res = {
        "unit-point": np.linalg.norm(frame.point, axis=-1) - 1.0,
        "grad-tangency": np.sum(grad_sph * frame.point, axis=-1),
        "mixed-row": hs[..., :n, n],
        "normal-entry": hs[..., n, n] + g * g * f,
        "gradient-profile": np.asarray(frame.grad_norm) ** 2 - g * g * (1.0 - f * f),
    }
    return {key: float(np.max(np.abs(value))) for key, value in res.items()}


class TestFrameStacks:
    """frame_at and orthonormal_complement on a block of points."""

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_stack_matches_pointwise(self, name):
        fam = family(name)
        pts = regular_sphere_points(fam, 9, 23)
        stack = frame_at(fam, pts)
        frames = [frame_at(fam, x) for x in pts]
        for key in ("point", "f", "df", "d2f", "grad_norm", "nu", "tangent_basis"):
            expected = np.array([getattr(fr, key) for fr in frames])
            assert np.allclose(getattr(stack, key), expected, rtol=1e-13, atol=1e-13), key
        for key in ("hessian_sph", "shape"):
            expected = np.array([getattr(fr, key).entries for fr in frames])
            assert np.allclose(
                getattr(stack, key).entries, expected, rtol=1e-13, atol=1e-13
            ), key
        for key, value in frame_invariants(stack).items():
            assert value < 1e-10, (key, value)

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_transnormal_stack_matches_pointwise(self, name):
        fam = family(name)
        pts = regular_sphere_points(fam, 9, 29)
        res_grad, res_lap = transnormal_residuals(fam, pts)
        pointwise = np.array([transnormal_residuals(fam, x) for x in pts])
        assert np.allclose(res_grad, pointwise[:, 0], rtol=1e-13, atol=1e-13)
        assert np.allclose(res_lap, pointwise[:, 1], rtol=1e-13, atol=1e-13)

    def test_focal_row_raises(self):
        fam = family("cartan1")
        pts = regular_sphere_points(fam, 4, 31)
        pts[2] = [1.0, 0.0, 0.0, 0.0, 0.0]  # F = u^3 = 1: a focal point
        with pytest.raises(
            FocalPointError,
            match=r"^level f = 1\.000000 is inside the focal band \(sample 2\)$",
        ):
            frame_at(fam, pts)

    def test_non_unit_row_raises(self):
        fam = family("cartan1")
        pts = regular_sphere_points(fam, 4, 31)
        pts[3] *= 1.0 + 1e-9
        with pytest.raises(ValueError, match=r"unit sphere.*sample 3"):
            frame_at(fam, pts)

    def test_nan_row_raises(self):
        fam = family("cartan1")
        pts = regular_sphere_points(fam, 4, 31)
        pts[0] = np.nan
        with pytest.raises(ValueError, match=r"unit sphere.*sample 0"):
            frame_at(fam, pts)

    def test_critical_row_raises_conditioning_error(self, monkeypatch):
        # A radial gradient at one row leaves no spherical normal there, so
        # its (x, nu) pair cannot be completed to a frame.
        fam = family("cartan1")
        pts = regular_sphere_points(fam, 4, 31)

        def radial_at_row_1(P, x):
            f, df, d2f = eval_jet(P, x)
            df[1] = P.g * f[1] * x[1]
            return f, df, d2f

        monkeypatch.setattr(spherelevel, "eval_jet", radial_at_row_1)
        with np.errstate(invalid="ignore"):
            with pytest.raises(ConditioningError, match=r"\(sample 1\)$"):
                frame_at(fam, pts)

    def test_complement_stack_matches_members(self):
        rng = np.random.default_rng(37)
        vecs = np.array(
            [np.linalg.qr(rng.standard_normal((7, 2)))[0].T for _ in range(5)]
        )
        stack = orthonormal_complement(vecs)
        assert stack.shape == (5, 5, 7)
        for v, basis in zip(vecs, stack):
            assert np.allclose(basis, orthonormal_complement(v), rtol=1e-13, atol=1e-13)

    def test_complement_stack_rank_deficient_member_raises(self):
        rng = np.random.default_rng(41)
        vecs = rng.standard_normal((3, 2, 6))
        vecs[2, 1] = 2.0 * vecs[2, 0]
        with pytest.raises(ConditioningError, match=r"\(sample 2\)$"):
            orthonormal_complement(vecs)


class TestFrames:
    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_frame_residuals(self, name):
        fam = family(name)
        for x in regular_sphere_points(fam, 10, 17):
            res = frame_invariants(frame_at(fam, x))
            for key, value in res.items():
                assert value < 1e-10, (key, value)

    def test_focal_band_rejected(self):
        fam = family("cartan1")
        x = np.zeros(5)
        x[0] = 1.0  # F = u^3 = 1 on the sphere: a focal point
        with pytest.raises(FocalPointError):
            frame_at(fam, x)

    def test_non_unit_rejected(self):
        fam = family("cartan1")
        with pytest.raises(ValueError, match="unit sphere"):
            frame_at(fam, np.full(5, 0.7))

    def test_nan_point_rejected(self):
        with pytest.raises(ValueError, match="unit sphere"):
            frame_at(family("cartan1"), np.full(5, np.nan))

    def test_nan_level_rejected(self, monkeypatch):
        fam = family("cartan1")
        x = regular_sphere_points(fam, 1, 43)[0]
        monkeypatch.setattr(
            spherelevel, "eval_jet", lambda P, y: (float("nan"), *eval_jet(P, y)[1:])
        )
        with pytest.raises(FocalPointError):
            frame_at(fam, x)

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_transnormal_residuals(self, name):
        fam = family(name)
        for x in regular_sphere_points(fam, 10, 19):
            res_grad, res_lap = transnormal_residuals(fam, x)
            assert abs(res_grad) < 1e-10
            assert abs(res_lap) < 1e-10


class TestMunznerSpectrum:
    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_spectrum_matches_prediction(self, name):
        fam = family(name)
        for x in regular_sphere_points(fam, 10, 23):
            deviation, flipped, _ = munzner_check(frame_at(fam, x))
            assert deviation < 1e-6
            assert not flipped

    def test_expected_values_against_cotangents(self):
        # independent recomputation of the prediction at a fixed level
        g, m1, m2, t = 4, 2, 1, 0.37
        tau = np.arccos(t) / g
        values = []
        for i in range(g):
            lam = np.cos(tau + i * np.pi / g) / np.sin(tau + i * np.pi / g)
            values.extend([lam] * (m1 if i % 2 == 0 else m2))
        expected = np.repeat(*cotangent_shift(g, m1, m2, t))
        assert np.max(np.abs(np.sort(expected) - np.sort(values))) < 1e-14

    def test_multiplicities_alternate(self):
        assert cotangent_shift(3, 2, 5, 0.1)[1] == (2, 5, 2)
        assert cotangent_shift(4, 2, 5, 0.1)[1] == (2, 5, 2, 5)

    def test_multiplicity_pattern(self):
        fam = family("fkm24")
        x = regular_sphere_points(fam, 1, 29)[0]
        w = eigensolve(frame_at(fam, x).shape)
        edges = np.concatenate([[True], cluster_starts(w), [True]])
        sizes = np.diff(np.flatnonzero(edges)).tolist()
        assert sum(sizes) == fam.n
        assert sorted(sizes) == sorted((2, 1, 2, 1))



# The scalar power sums that level_power_sums replaced, one level and one k
# per call in numpy scalar arithmetic, kept as the table's oracle.
def qk_oracle(g, m1, m2, t, k):
    cots, mult = cotangent_shift(g, m1, m2, t)
    # branches j, j + 2, ... share the multiplicity mult[j]
    return sum(mult[j] * sum(c**k for c in cots[j::2]) for j in (0, 1))


def rhobar_oracle(g, m1, m2, t, k):
    stretch = g * np.sqrt(1.0 - t * t)
    acc = 0.0
    for lam, mult in zip(*cotangent_shift(g, m1, m2, t)):
        acc += mult * (-stretch * lam + g * t) ** k
    acc += float(g**k) * float((g - 1) ** k) * (1.0 + (-1.0) ** k)
    return acc


# (g, m1, m2) of cartan-1, cartan-8, fkm-1-3, fkm-2-4, fkm-1-64, ot-1, ot-3
TABLE_CASES = [
    (3, 1, 1), (3, 8, 8), (4, 1, 1), (4, 2, 1), (4, 1, 62), (4, 3, 4), (4, 3, 12)
]
TABLE_LEVELS = np.concatenate(
    [np.linspace(-0.8, 0.8, n) for n in (1, 9, 33, 57)] + [[-0.95, -0.3, 0.0, 0.62, 0.95]]
)


class TestLevelTable:
    @pytest.mark.parametrize("g,m1,m2", TABLE_CASES)
    def test_table_equals_scalar_sums_bit_for_bit(self, g, m1, m2):
        q, rhobar = level_power_sums(g, m1, m2, TABLE_LEVELS, 8)
        assert q.shape == rhobar.shape == (len(TABLE_LEVELS), 9)
        for i, t in enumerate(map(float, TABLE_LEVELS)):
            for k in range(9):
                assert q[i, k] == qk_oracle(g, m1, m2, t, k), (t, k)
                assert rhobar[i, k] == rhobar_oracle(g, m1, m2, t, k), (t, k)

    @pytest.mark.parametrize("g,m1,m2", TABLE_CASES)
    def test_complex_step_derivatives_match_the_oracle(self, g, m1, m2):
        # Q's complex table equals the scalar sums bit for bit. numpy's
        # complex array products and powers round rhobar's differently in
        # the last bits, so its slopes are held to 1e-14 of the level's
        # largest sum (at most 1.9e-15 measured, on cartan-8).
        ts = np.linspace(-0.8, 0.8, 33)
        q, rhobar = level_power_sums(g, m1, m2, ts + 1j * COMPLEX_STEP, 7)
        for i, t in enumerate(map(float, ts)):
            step = complex(t, COMPLEX_STEP)
            scale = max(1.0, *(abs(rhobar_oracle(g, m1, m2, t, k)) for k in range(8)))
            for k in range(8):
                assert q[i, k] == qk_oracle(g, m1, m2, step, k), (t, k)
                slope = np.imag(rhobar_oracle(g, m1, m2, step, k)) / COMPLEX_STEP
                deviation = abs(np.imag(rhobar[i, k]) / COMPLEX_STEP - slope)
                assert deviation <= 1e-14 * scale, (t, k)

    def test_any_shape_of_levels(self):
        grid = np.linspace(-0.6, 0.6, 6)
        q, rhobar = level_power_sums(4, 2, 1, grid.reshape(2, 3), 5)
        assert q.shape == rhobar.shape == (2, 3, 6)
        flat_q, flat_rhobar = level_power_sums(4, 2, 1, grid, 5)
        assert np.array_equal(q.reshape(6, 6), flat_q)
        assert np.array_equal(rhobar.reshape(6, 6), flat_rhobar)
        one_q, one_rhobar = level_power_sums(4, 2, 1, 0.3, 5)
        assert one_q.shape == one_rhobar.shape == (6,)


class TestMoments:
    def test_q0_counts_terms(self):
        for g, m1, m2 in [(3, 1, 1), (4, 2, 1), (4, 3, 4)]:
            n = m1 * ((g + 1) // 2) + m2 * (g // 2)
            assert level_power_sums(g, m1, m2, 0.2, 0)[0][0] == pytest.approx(n)
            assert n == g * (m1 + m2) // 2

    def test_q1_closed_form(self):
        for t in np.linspace(-0.8, 0.8, 7):
            for g, m1, m2 in [(3, 1, 1), (4, 2, 1), (4, 3, 4)]:
                assert level_power_sums(g, m1, m2, t, 1)[0][1] == pytest.approx(
                    munzner_q1_closed(g, m1, m2, t), abs=1e-10
                )

    def test_q1_at_zero(self):
        assert munzner_q1_closed(4, 2, 1, 0.0) == pytest.approx(4 * (2 - 1) / 2)

    def test_rhobar_seeds(self):
        for g, m1, m2 in [(3, 1, 1), (4, 2, 1), (4, 3, 4)]:
            n = g * (m1 + m2) // 2
            _, rhobar = level_power_sums(g, m1, m2, [-0.5, 0.1, 0.62], 1)
            assert rhobar[:, 0] == pytest.approx(n + 2)
            assert rhobar[:, 1] == pytest.approx(g * g * (m2 - m1) / 2.0, abs=1e-9)

    def test_cartan_rhobar2_constant(self):
        _, rhobar = level_power_sums(3, 1, 1, [-0.6, 0.0, 0.44], 2)
        assert rhobar[:, 2] == pytest.approx(126.0, abs=1e-4)


def nan_table(monkeypatch, which, bad_k):
    """Patch spherelevel's level table so entry `which` (0: Q, 1: rhobar)
    reads NaN at order bad_k, at real and complex levels alike."""
    table = spherelevel.level_power_sums

    def patched(g, m1, m2, t, k_max):
        sums = list(table(g, m1, m2, t, k_max))
        sums[which] = sums[which].copy()
        sums[which][..., bad_k] = math.nan
        return tuple(sums)

    monkeypatch.setattr(spherelevel, "level_power_sums", patched)


class TestRecurrences:
    ts = np.linspace(-0.8, 0.8, 9)

    @pytest.mark.parametrize("g,m1,m2", [(3, 1, 1), (3, 2, 2), (4, 2, 1)])
    def test_qk_recurrence(self, g, m1, m2):
        assert qk_recurrence_check(g, m1, m2, self.ts) < 1e-12

    def test_qk_range_validation(self):
        with pytest.raises(ValueError):
            qk_recurrence_check(3, 1, 1, [0.95])

    def test_qk_recurrence_keeps_a_nan_power_sum(self, monkeypatch):
        nan_table(monkeypatch, 0, 3)
        assert math.isnan(qk_recurrence_check(3, 1, 1, self.ts))

    def test_relative_residual_keeps_a_nan_scale(self, monkeypatch):
        # with k_max = 3 the order-4 sum enters only as the scale of the
        # k = 2 residual, where lhs and rhs agree
        monkeypatch.setattr(spherelevel, "RECURRENCE_K_MAX", 3)
        assert qk_recurrence_check(3, 1, 1, self.ts) < 1e-12
        nan_table(monkeypatch, 0, 4)
        assert math.isnan(qk_recurrence_check(3, 1, 1, self.ts))

    @pytest.mark.parametrize(
        "bad_k,fields",
        [
            (0, ("recurrence", "path-agreement", "seed-zero")),
            (1, ("recurrence", "path-agreement", "seed-one")),
            (3, ("recurrence", "path-agreement")),
        ],
    )
    def test_rhobar_recurrence_keeps_a_nan_power_sum(self, monkeypatch, bad_k, fields):
        nan_table(monkeypatch, 1, bad_k)
        report = rhobar_recurrence_check(family("cartan1"), [-0.3, 0.2], 0)
        assert set(report) == {"recurrence", "path-agreement", "seed-zero", "seed-one"}
        for name, value in report.items():
            assert math.isnan(value) == (name in fields), name

    @pytest.mark.parametrize("name", ["cartan1", "fkm24", "ot1"])
    def test_rhobar_recurrence(self, name):
        fam = family(name)
        report = rhobar_recurrence_check(fam, self.ts, 0)
        assert report["seed-zero"] == 0.0
        assert report["seed-one"] < 1e-12
        assert report["recurrence"] < 1e-12
        assert report["path-agreement"] < 1e-7

    @pytest.mark.parametrize("name", ["cartan8", "fkm24", "ot3"])
    def test_level_grid_is_projected_per_block(self, monkeypatch, name):
        # 33 levels in blocks of 16: three projections of the seeded point,
        # each row the single-level projection bit for bit
        fam = family(name)
        t = np.linspace(-0.8, 0.8, 33)
        calls = []

        def counted(P, x, targets):
            calls.append(np.shape(targets))
            return level_project(P, x, targets)

        monkeypatch.setattr(spherelevel, "level_project", counted)
        report = rhobar_recurrence_check(fam, t, 5)
        assert calls == [(16,), (16,), (1,)]
        x0 = regular_sphere_points(fam, 1, 5)[0]
        rho = [rho_k(eval_hessian(fam, level_project(fam, x0, level)), range(7))
               for level in t]
        rhobar = level_power_sums(fam.g, fam.m1, fam.m2, t, 6)[1]
        assert report["path-agreement"] == float(np.max(np.abs(rhobar - rho)))


class TestLevelProjection:
    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_lands_on_target(self, name):
        fam = family(name)
        for x in regular_sphere_points(fam, 5, 37):
            frame = frame_at(fam, x)
            tau0 = np.arccos(frame.f) / fam.g
            for target in (-0.4, 0.0, 0.55):
                y = level_project(fam, x, target)
                assert abs(eval_F(fam, y) - target) < 1e-9
                assert abs(np.linalg.norm(y) - 1.0) < 1e-12
                # y lies on the normal great circle of x; F follows
                # cos(g (tau0 - s)) along the whole arc up to it
                arc = np.arctan2(y @ frame.nu, y @ x)
                assert np.allclose(np.cos(arc) * x + np.sin(arc) * frame.nu, y,
                                   rtol=0.0, atol=1e-12)
                s = np.linspace(min(0.0, arc), max(0.0, arc), 20)
                arcs = np.cos(s)[:, None] * x + np.sin(s)[:, None] * frame.nu
                path = np.abs(eval_F(fam, arcs) - np.cos(fam.g * (tau0 - s)))
                assert np.max(path) < 1e-12

    def test_three_evaluations_per_projection(self, monkeypatch):
        # start level, landing level, and the 20 path points of every row
        # as one block
        fam = family("fkm24")
        pts = regular_sphere_points(fam, 5, 41)
        calls = []

        def counted(P, y):
            calls.append(np.shape(y))
            return eval_F(P, y)

        monkeypatch.setattr(spherelevel, "eval_F", counted)
        level_project(fam, pts[0], 0.3)
        assert calls == [(8,), (8,), (20, 8)]
        calls.clear()
        level_project(fam, pts, 0.3)
        assert calls == [(5, 8), (5, 8), (100, 8)]

    def test_rejects_focal_target(self):
        fam = family("cartan1")
        x = regular_sphere_points(fam, 1, 41)[0]
        with pytest.raises(FocalPointError):
            level_project(fam, x, 1.5)
        with pytest.raises(FocalPointError):
            level_project(fam, x, 0.9995)

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_one_target_per_row(self, name):
        # row i of a block, or the one point x, lands on level t[i] as the
        # single-level call lands it
        fam = family(name)
        pts = regular_sphere_points(fam, 5, 43)
        targets = np.array([-0.4, 0.0, 0.55, 0.2, -0.7])
        landed = level_project(fam, pts, targets)
        spread = level_project(fam, pts[0], targets)
        assert landed.shape == spread.shape == (5, fam.ambient_dim)
        for i, target in enumerate(targets):
            assert np.array_equal(landed[i], level_project(fam, pts[i], target))
            assert np.array_equal(spread[i], level_project(fam, pts[0], target))
        assert np.max(np.abs(eval_F(fam, spread) - targets)) < 1e-9

    def test_rejects_nan_target(self):
        # A NaN target used to land on a NaN point with a tiny path residual.
        fam = make_fkm(1, 3)
        x = regular_sphere_points(fam, 1, 41)[0]
        with pytest.raises(FocalPointError):
            level_project(fam, x, float("nan"))

    def test_rejects_nan_start_level(self, monkeypatch):
        fam = family("cartan1")
        x = regular_sphere_points(fam, 1, 41)[0]
        monkeypatch.setattr(spherelevel, "eval_F", lambda P, y: float("nan"))
        with pytest.raises(FocalPointError):
            level_project(fam, x, 0.2)

    def test_rejects_nan_landing(self, monkeypatch):
        fam = family("cartan1")
        x = regular_sphere_points(fam, 1, 41)[0]
        monkeypatch.setattr(spherelevel, "landing_arc", lambda *a: float("nan"))
        with pytest.raises(ProjectionError, match="misses target"):
            level_project(fam, x, 0.2)

    def test_rejects_nan_path(self, monkeypatch):
        # F is exact at the start and landing points and NaN along the arc.
        fam = family("cartan1")
        x = regular_sphere_points(fam, 1, 41)[0]
        calls = []

        def eval_f(P, y):
            calls.append(y)
            return eval_F(P, y) if len(calls) <= 2 else float("nan")

        monkeypatch.setattr(spherelevel, "eval_F", eval_f)
        with pytest.raises(ProjectionError, match="normal arc"):
            level_project(fam, x, 0.2)


BLOCK_FAMILIES = ["cartan1", "cartan8", "fkm24", "ot3"]


class TestBlockRows:
    """Each row of a block equals the single-point call bit for bit, and a
    failing row is named."""

    @pytest.mark.parametrize("size", [1, 3, 16, 50])
    @pytest.mark.parametrize("name", BLOCK_FAMILIES)
    def test_level_project_rows(self, name, size):
        fam = family(name)
        pts = regular_sphere_points(fam, size, 131, f_bound=0.85)
        landed = level_project(fam, pts, 0.3)
        assert landed.shape == pts.shape
        for i, x in enumerate(pts):
            assert np.array_equal(landed[i], level_project(fam, x, 0.3))

    @pytest.mark.parametrize("size", [1, 3, 16, 50])
    @pytest.mark.parametrize("name", BLOCK_FAMILIES)
    def test_munzner_check_rows(self, name, size):
        fam = family(name)
        pts = regular_sphere_points(fam, size, 137, f_bound=0.85)
        ys = level_project(fam, pts, -0.2)
        deviation, flipped, expected = munzner_check(frame_at(fam, ys))
        assert deviation.shape == flipped.shape == (size,)
        assert expected.shape == (size, fam.n)
        for i, y in enumerate(ys):
            dev, flip, exp = munzner_check(frame_at(fam, y))
            assert deviation[i] == dev and flipped[i] == flip
            assert np.array_equal(expected[i], exp)

    def test_focal_row_is_named(self):
        fam = family("cartan1")
        pts = regular_sphere_points(fam, 5, 139)
        pts[3] = np.eye(5)[0]  # F = u^3 = 1, the focal maximum
        with pytest.raises(
            FocalPointError, match=r"start level 1\.000000 is not regular \(sample 3\)"
        ):
            level_project(fam, pts, 0.2)

    @pytest.mark.parametrize("bad", [1.5, -0.9995, float("nan")])
    def test_focal_target_row_is_named(self, bad):
        fam = family("cartan1")
        pts = regular_sphere_points(fam, 5, 139)
        targets = np.array([0.2, -0.3, 0.1, bad, 0.0])
        message = rf"^target level {bad} is not a regular level \(sample 3\)$"
        for x in (pts, pts[0]):
            with pytest.raises(FocalPointError, match=message):
                level_project(fam, x, targets)

    def test_missed_landing_row_is_named(self, monkeypatch):
        fam = family("cartan1")
        pts = regular_sphere_points(fam, 5, 139)
        arc = spherelevel.landing_arc
        monkeypatch.setattr(
            spherelevel, "landing_arc",
            lambda *a: np.where(np.arange(5) == 3, np.nan, arc(*a)),
        )
        with pytest.raises(ProjectionError, match=r"misses target by nan \(sample 3\)"):
            level_project(fam, pts, 0.2)

    def test_path_row_is_named(self, monkeypatch):
        # F is exact everywhere but on the 20 arc points of row 3
        fam = family("cartan1")
        pts = regular_sphere_points(fam, 5, 139)
        calls = []

        def eval_f(P, y):
            calls.append(y)
            values = eval_F(P, y)
            if len(calls) == 3:
                values[60:80] = np.nan
            return values

        monkeypatch.setattr(spherelevel, "eval_F", eval_f)
        with pytest.raises(ProjectionError, match=r"normal arc .* by nan \(sample 3\)"):
            level_project(fam, pts, 0.2)

    def test_blocks_cover_the_samples_in_order(self):
        # each column is joined over the blocks along its leading axis
        def evaluate(block):
            size = block.stop - block.start
            return np.arange(block.start, block.stop), np.full((size, 2), block.start)

        index, start = in_blocks(50, evaluate)
        assert SAMPLE_BLOCK == 16
        assert np.array_equal(index, np.arange(50))
        assert start.shape == (50, 2)
        assert np.array_equal(start[:, 0], np.repeat([0, 16, 32, 48], [16, 16, 16, 2]))
        assert in_blocks(0, evaluate) == ()

    def test_blocks_name_the_sample(self):
        # a row of the second block is named by its index among all samples
        def evaluate(block):
            if block.start:
                raise ProjectionError("missed (sample 3)")
            return block

        with pytest.raises(ProjectionError, match=r"^missed \(sample 19\)$"):
            in_blocks(40, evaluate)

    @pytest.mark.parametrize(
        "kernel,error,message",
        [
            ("asymmetric", ValueError, r"^matrix is not symmetric: .* \(sample 19\)$"),
            ("non-finite", ValueError, r"^matrix has a non-finite entry nan .* \(sample 19\)$"),
            ("rank-deficient", ConditioningError, r"^rank-deficient input rows: min \|diag R\| \S+ \(sample 19\)$"),
            ("zero-row", ValueError, r"^x must be nonzero \(sample 19\)$"),
        ],
    )
    def test_every_row_gate_is_named_among_all_samples(self, kernel, error, message):
        # member 19 of 40 is row 3 of the second block
        rng = np.random.default_rng(43)
        stack = rng.standard_normal((40, 4, 4))
        stack += np.swapaxes(stack, -2, -1)
        rows = rng.standard_normal((40, 2, 6))
        points = regular_sphere_points(family("cartan1"), 40, 43)
        if kernel == "asymmetric":
            stack[19, 0, 1] += 1.0
        elif kernel == "non-finite":
            stack[19, 2, 3] = stack[19, 3, 2] = np.nan
        elif kernel == "rank-deficient":
            rows[19, 1] = 2.0 * rows[19, 0]
        else:
            points[19] = 0.0
        evaluate = {
            "asymmetric": lambda block: (SymmetricMatrix(stack[block]).entries,),
            "non-finite": lambda block: (SymmetricMatrix(stack[block]).entries,),
            "rank-deficient": lambda block: (orthonormal_complement(rows[block]),),
            "zero-row": lambda block: cm_residuals(family("cartan1"), points[block]),
        }[kernel]
        with pytest.raises(error, match=message):
            in_blocks(40, evaluate)


class TestCsv:
    def test_recurrence_table_round_trips(self, tmp_path):
        path = tmp_path / "table.csv"
        ts = np.linspace(-0.5, 0.5, 5)
        write_csv(path, *recurrence_table(4, 2, 1, ts))
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0][0] == "t"
        assert len(rows) == 1 + len(ts)
        # 17 significant digits reproduce the doubles bit for bit
        got = float(rows[1][1])
        assert got == qk_oracle(4, 2, 1, float(rows[1][0]), 1)
