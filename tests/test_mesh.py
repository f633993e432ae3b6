import functools
import io
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nufd import (
    Mesh,
    MeshError,
    build_equiarclength,
    build_geometric,
    build_uniform,
    make_polynomial,
    make_sinusoid,
    refine_insert,
    smoothness_ratios,
    write_mesh_csv,
)
import nufd.mesh
from nufd.mesh import _BLOCK_ROWS, _KERNEL_ROWS, _cells, _kernel_tables, _write_tables

from helpers import EPS, random_mesh, read_mesh_points, reference_columns_csv


class TestBuildUniform:
    def test_twelve_points_on_unit_interval(self):
        m = build_uniform(0, 1, 12)
        assert m.n_points == 12
        np.testing.assert_allclose(m.steps, 1 / 11, rtol=1e-15)
        assert m.is_uniform()

    def test_minimal_mesh(self):
        m = build_uniform(0, 1, 2)
        np.testing.assert_array_equal(m.points, [0.0, 1.0])
        assert m.steps[0] == 1.0

    def test_refined_mesh_of_the_studies(self):
        m = build_uniform(0, 1, 23)
        np.testing.assert_allclose(m.steps, 1 / 22, rtol=1e-13)

    @pytest.mark.parametrize("a,b", [(1.0, 1.0), (2.0, 1.0)])
    def test_rejects_bad_interval(self, a, b):
        with pytest.raises(MeshError):
            build_uniform(a, b, 5)

    def test_rejects_too_few_points(self):
        with pytest.raises(MeshError):
            build_uniform(0, 1, 1)


@pytest.mark.parametrize("build", [build_uniform, functools.partial(build_equiarclength, make_polynomial([0, 1]))],
                         ids=["uniform", "equiarclength"])
@pytest.mark.parametrize("a,b,n,message", [
    (1.0, 1.0, 5, "interval endpoints must satisfy b > a, got a=1.0, b=1.0"),
    (0.0, 1.0, 1, "n_points must be at least 2, got 1"),
], ids=["empty-interval", "one-point"])
def test_both_interval_builders_give_one_message(build, a, b, n, message):
    with pytest.raises(MeshError) as info:
        build(a, b, n)
    assert str(info.value) == message


class TestBuildGeometric:
    def test_oscillator_mesh_endpoint(self):
        m = build_geometric(0, 0.1, 50 / 59, 200)
        assert m.n_points == 202
        assert abs(m.b - 59 / 90) < 1e-12
        # the tiniest tail steps are near eps * b, so cancellation in
        # points[k+1] - points[k] caps their relative accuracy
        np.testing.assert_allclose(
            m.steps, 0.1 * (50 / 59) ** np.arange(201), rtol=1e-12, atol=4 * EPS * m.b
        )

    def test_unit_ratio_matches_uniform_bit_for_bit(self):
        geo = build_geometric(0, 0.1, 1.0, 9)
        uni = build_uniform(0, 1, 11)
        np.testing.assert_array_equal(geo.points, uni.points)
        assert geo.is_uniform()

    def test_direct_summation(self):
        m = build_geometric(0, 0.1, 2.0, 2)
        np.testing.assert_allclose(m.points, [0, 0.1, 0.3, 0.7], atol=1e-15)

    @given(st.floats(-1e3, 1e3), st.floats(1e-6, 1.0), st.floats(0.5, 2.0), st.integers(0, 300))
    @example(0.0, 0.1, 50 / 59, 200)
    @example(-0.0, 1e-4, 1.0001, 19998)
    @settings(max_examples=100, deadline=None)
    def test_points_are_the_expression_bit_for_bit(self, t0, h0, r, m):
        # the points are formed in place; they equal the expression as first written
        want = np.concatenate(([t0], t0 + np.cumsum(h0 * r ** np.arange(m + 1, dtype=np.float64))))
        assume(r != 1.0 and np.all(want[1:] > want[:-1]))  # else a uniform mesh, or none
        assert build_geometric(t0, h0, r, m).points.tobytes() == want.tobytes()

    @pytest.mark.parametrize("h0,r", [(0.0, 1.0), (-0.1, 1.0), (0.1, 0.0), (0.1, -2.0)])
    def test_rejects_nonpositive_parameters(self, h0, r):
        with pytest.raises(MeshError):
            build_geometric(0, h0, r, 3)

    @pytest.mark.parametrize("r", [1.0, 2.0])
    def test_rejects_a_negative_m(self, r):
        with pytest.raises(MeshError, match="m must be nonnegative, got -1"):
            build_geometric(0, 0.1, r, -1)


class TestBuildEquiarclength:
    def test_constant_speed_gives_uniform_mesh(self):
        line = make_polynomial([0, 1])  # y = t, speed sqrt(2) everywhere
        m = build_equiarclength(line, 0, 1, 12)
        np.testing.assert_allclose(m.points, np.linspace(0, 1, 12), atol=1e-12)

    def test_sine_mesh_is_symmetric(self):
        # speed sqrt(1 + 4 pi^2 cos^2(2 pi t)) is invariant under t -> 1 - t,
        # so the equal-arclength points must mirror around 0.5
        curve = make_sinusoid(amplitude=1.0, frequency=2 * math.pi)
        m = build_equiarclength(curve, 0, 1, 12)
        np.testing.assert_allclose(m.points[::-1], 1.0 - m.points, atol=1e-12)

    def test_sine_mesh_clusters_where_curve_is_steep(self):
        curve = make_sinusoid(amplitude=1.0, frequency=2 * math.pi)
        m = build_equiarclength(curve, 0, 1, 12)
        h = m.steps
        assert h[0] < h[2]
        # steepest slope at the ends and the middle, flattest around 0.25, 0.75
        assert np.argmax(h) in (2, 8)

    @staticmethod
    def fine_arclength(curve):
        """The grid and cumulative arclength of the trapezoidal rule on 200,000 panels of [0, 1]."""
        s = np.linspace(0, 1, 200_001)
        speed = np.sqrt(1 + np.asarray(curve.evaluate(1, s)) ** 2)
        return s, np.concatenate(([0.0], np.cumsum(0.5 * (speed[1:] + speed[:-1]) * np.diff(s))))

    def test_equal_arclength_pieces_against_fine_quadrature(self):
        curve = make_sinusoid(amplitude=1.0, frequency=2 * math.pi)
        n_points = 12
        m = build_equiarclength(curve, 0, 1, n_points)

        s_fine, cum_fine = self.fine_arclength(curve)
        total = cum_fine[-1]
        oracle = np.interp(np.linspace(0, total, n_points), cum_fine, s_fine)
        # quadrature error of the builder's table-and-inversion pipeline,
        # measured as arclength drift of its points against the oracle mesh
        quad_error = np.max(
            np.abs(
                np.interp(m.points, s_fine, cum_fine)
                - np.interp(oracle, s_fine, cum_fine)
            )
        )
        assert quad_error <= 1e-7 * total
        pieces = np.diff(np.interp(m.points, s_fine, cum_fine))
        target = total / (n_points - 1)
        assert np.max(np.abs(pieces - target)) <= 2 * quad_error + 1e-12 * total

    def test_more_points_than_the_smallest_table(self):
        curve = make_sinusoid(amplitude=1.0, frequency=2 * math.pi)
        n_points = 2 * nufd.mesh.ARCLENGTH_PANELS
        m = build_equiarclength(curve, 0, 1, n_points)
        s_fine, cum_fine = self.fine_arclength(curve)
        target = cum_fine[-1] / (n_points - 1)
        np.testing.assert_allclose(m.points, np.interp(np.arange(n_points) * target, cum_fine, s_fine),
                                   rtol=0, atol=1e-7)
        pieces = np.diff(np.interp(m.points, s_fine, cum_fine))
        np.testing.assert_allclose(pieces, target, rtol=1e-3)

    def test_tied_points_are_named(self):
        # 1e15 + 1 is only 8 ulps above 1e15, too few for 12 distinct points
        curve = make_sinusoid(amplitude=1.0, frequency=2 * math.pi)
        with pytest.raises(MeshError, match=r"strictly increasing; points\[2\]=1000000000000000.2 >= ") as info:
            build_equiarclength(curve, 1e15, 1e15 + 1, 12)
        assert "quad_resolution" not in str(info.value)

    @pytest.mark.parametrize("curve,a,b,label", [
        (make_polynomial([0, 0, 0, 0, 0, 1e300]), 0.0, 1.0, "poly(0,0,0,0,0,1e+300) on [0.0, 1.0]"),
        (make_sinusoid(amplitude=1.0, frequency=2 * math.pi), -1e308, 1e308,
         "sinusoid(amplitude=1,frequency=6.28319,phase=0) on [-1e+308, 1e+308]"),
    ], ids=["steep-curve", "wide-interval"])
    def test_overflowing_arclength_is_named(self, curve, a, b, label):
        with pytest.raises(MeshError) as info, np.errstate(all="ignore"):
            build_equiarclength(curve, a, b, 12)
        assert str(info.value) == f"the arclength of {label} is not a finite float"

    def test_rejects_bad_inputs(self):
        curve = make_sinusoid(amplitude=1.0, frequency=1.0)
        with pytest.raises(MeshError):
            build_equiarclength(curve, 1, 0, 12)


class TestRefineInsert:
    def test_midpoint_insertion_preserves_uniformity(self):
        m = refine_insert(build_uniform(0, 1, 12), 0.5)
        assert m.n_points == 23
        assert m.is_uniform()
        np.testing.assert_allclose(m.steps, 1 / 22, rtol=1e-14)

    def test_direct_placement(self):
        m = refine_insert(Mesh(np.array([0.0, 1.0])), 0.7)
        np.testing.assert_allclose(m.points, [0.0, 0.7, 1.0], atol=1e-15)

    def test_original_points_preserved_and_steps_doubled(self):
        rng = np.random.default_rng(11)
        base = random_mesh(rng, 9)
        out = refine_insert(base, 0.3)
        np.testing.assert_array_equal(out.points[0::2], base.points)
        assert out.steps.size == 2 * base.steps.size

    def test_right_leaning_insertion(self):
        base = Mesh(np.array([0.0, 1.0, 3.0]))
        out = refine_insert(base, 0.7)
        np.testing.assert_allclose(out.points, [0.0, 0.7, 1.0, 2.4, 3.0], atol=1e-15)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 60), st.floats(0.01, 0.99))
    @settings(max_examples=100, deadline=None)
    def test_inserted_points_are_the_expression_bit_for_bit(self, seed, m, beta):
        base = random_mesh(np.random.default_rng(seed), m)
        want = base.points[:-1] + beta * base.steps
        assert refine_insert(base, beta).points[1::2].tobytes() == want.tobytes()

    @pytest.mark.parametrize("beta", [0.0, 1.0, -0.2, 1.5])
    def test_rejects_beta_outside_open_interval(self, beta):
        with pytest.raises(MeshError):
            refine_insert(build_uniform(0, 1, 3), beta)


class TestSmoothnessRatios:
    def test_uniform_mesh_all_ones(self):
        # power-of-two spacing keeps every step bit-identical
        m = Mesh(0.25 * np.arange(13))
        assert np.all(smoothness_ratios(m) == 1.0)

    def test_geometric_mesh_constant_ratio(self):
        m = Mesh(np.concatenate(([0.0], np.cumsum(0.5 * 2.0 ** np.arange(6)))))
        assert np.all(smoothness_ratios(m) == 2.0)

    def test_single_step_mesh_rejected(self):
        with pytest.raises(MeshError):
            smoothness_ratios(Mesh(np.array([0.0, 1.0])))


class TestMeshValidation:
    def test_rejects_non_increasing_points(self):
        with pytest.raises(MeshError):
            Mesh(np.array([0.0, 1.0, 1.0]))
        with pytest.raises(MeshError):
            Mesh(np.array([0.0, 2.0, 1.0]))

    def test_non_increasing_points_are_named_as_plain_floats(self):
        # numpy 2 reprs a float64 as np.float64(...); the message must not depend on that
        with pytest.raises(MeshError) as info:
            build_geometric(0.0, 1e-300, 1e-10, 3)
        assert str(info.value) == (
            "mesh points must be strictly increasing; "
            "points[2]=1.0000000001e-300 >= points[3]=1.0000000001e-300"
        )

    def test_rejects_non_finite_points(self):
        with pytest.raises(MeshError):
            Mesh(np.array([0.0, np.nan, 1.0]))

    def test_rejects_a_span_that_is_not_a_finite_float(self):
        # increasing points whose first step, t_1 - t_0, overflows to inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MeshError, match="mesh span t_last - t_0 = 1.5e"):
                Mesh(np.array([-1e308, 1e308, 1.5e308]))

    def test_out_of_order_points_whose_steps_overflow_raise_without_a_warning(self):
        # the span is 0, so only the order test rejects these points; their steps overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MeshError) as info:
                Mesh(np.array([-1e308, 1e308, -1e308]))
        assert str(info.value) == (
            "mesh points must be strictly increasing; points[1]=1e+308 >= points[2]=-1e+308"
        )

    def test_steps_are_the_differences_of_the_points(self):
        points = np.cumsum(np.random.default_rng(5).uniform(0.1, 2.0, 50)) - 7.0
        assert Mesh(points).steps.tobytes() == np.diff(points).tobytes()

    def test_rejects_points_that_are_not_one_dimensional(self):
        with pytest.raises(MeshError, match="one-dimensional"):
            Mesh(np.array([[0.0, 1.0], [2.0, 3.0]]))

    def test_rejects_single_point(self):
        with pytest.raises(MeshError):
            Mesh(np.array([0.0]))

    def test_points_are_immutable(self):
        m = build_uniform(0, 1, 5)
        with pytest.raises(ValueError):
            m.points[0] = 3.0
        with pytest.raises(ValueError):
            m.steps[0] = 3.0

    def test_a_float64_array_is_kept_and_frozen_in_place(self):
        # a large input is not copied, so the caller's array becomes the read-only points
        a = np.linspace(0, 1, 5)
        assert Mesh(a).points is a and not a.flags.writeable
        # any other input is converted into a new array and the caller's stays writeable
        for other in (np.linspace(0, 1, 9)[::2], np.arange(5, dtype=np.int64)):
            m = Mesh(other)
            assert m.points is not other and other.flags.writeable

    def test_uniformity_tolerance_boundary(self):
        assert Mesh(np.array([0.0, 1.0, 2.0 + 5e-13])).is_uniform()
        assert not Mesh(np.array([0.0, 1.0, 2.0 + 5e-12])).is_uniform()

    @pytest.mark.parametrize("a,b,n", [(1e6, 1e6 + 1, 1000), (-0.7, 1.1, 10**6)])
    def test_rounding_of_the_points_is_not_nonuniformity(self, a, b, n):
        # Step spreads of 1.16e-10 (one ulp of 1e6) and 2.2e-16 (one ulp of 1).
        assert build_uniform(a, b, n).is_uniform()

    def test_far_from_the_origin_a_real_spread_still_counts(self):
        assert not Mesh(np.array([1e6, 1e6 + 1, 1e6 + 2 + 1e-6])).is_uniform()

    def test_equality_and_hash(self):
        a = build_uniform(0, 1, 5)
        b = build_uniform(0, 1, 5)
        c = build_uniform(0, 1, 6)
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_signed_zeros_are_equal_and_hash_alike(self):
        negative, positive = build_geometric(-0.0, 0.1, 2.0, 3), build_geometric(0.0, 0.1, 2.0, 3)
        assert negative.points[0].tobytes() != positive.points[0].tobytes()
        assert negative == positive and hash(negative) == hash(positive)
        assert len({negative, positive}) == 1
        assert np.signbit(negative.points[0])  # the hash leaves the points as they are

    def test_repr_names_the_size_the_interval_and_the_uniformity(self):
        assert repr(build_uniform(0, 1, 5)) == "Mesh(5 points on [0, 1], uniform)"
        assert repr(Mesh(np.array([-0.5, 0.0, 2.0]))) == "Mesh(3 points on [-0.5, 2], nonuniform)"

    def test_equality_with_itself_and_with_other_types(self):
        a = build_uniform(0, 1, 5)
        assert a == a and not a != a
        assert Mesh(np.array([0.0, 0.5, 1.0])) != Mesh(np.array([0.0, 0.25, 1.0]))
        assert a.__eq__("uniform:0,1,5") is NotImplemented
        assert a != "uniform:0,1,5" and a != 5

    def test_comparison_with_an_array_is_a_plain_bool(self):
        a = build_uniform(0, 1, 5)
        for left, right in ((a, a.points), (a.points, a)):
            assert (left != right) is True
            assert (left == right) is False

    def test_uniformity_verdicts_stay_with_their_mesh(self):
        uniform = build_uniform(0, 1, 9)
        nonuniform = Mesh(np.array([0.0, 1.0, 2.0 + 5e-12]))
        for _ in range(2):
            assert uniform.is_uniform()
            assert not nonuniform.is_uniform()
        assert build_uniform(0, 1, 9).is_uniform()
        assert not Mesh(np.array([0.0, 1.0, 2.0 + 5e-12])).is_uniform()

    @given(
        st.lists(st.floats(min_value=0.01, max_value=2.0), min_size=1, max_size=60),
        st.floats(min_value=-5, max_value=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_steps_sum_to_interval_length(self, steps, start):
        pts = np.concatenate(([start], start + np.cumsum(steps)))
        m = Mesh(pts)
        budget = 8 * EPS * len(steps) * max(abs(m.a), abs(m.b), 1.0)
        assert abs(m.steps.sum() - (m.b - m.a)) <= budget
        np.testing.assert_array_equal(m.steps, np.diff(m.points))


class TestMeshCsv:
    def test_round_trip_is_exact(self, tmp_path):
        m = build_geometric(0.1, 1 / 3, 50 / 59, 17)
        path = tmp_path / "mesh.csv"
        write_mesh_csv(m, path)
        back = read_mesh_points(path)
        np.testing.assert_array_equal(back.points, m.points)
        np.testing.assert_array_equal(back.steps, m.steps)

    def test_layout(self):
        buf = io.StringIO()
        write_mesh_csv(build_uniform(0, 1, 3), buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "k,t,h"
        assert len(lines) == 4
        assert lines[-1].endswith(",")  # h column empty on the last row
        assert lines[1].split(",")[0] == "0"

    def test_stream_and_path_give_the_same_bytes(self, tmp_path):
        m = random_mesh(np.random.default_rng(5), 2 * _BLOCK_ROWS + 3, start=-0.3)
        buf = io.StringIO()
        write_mesh_csv(m, buf)
        write_mesh_csv(m, tmp_path / "mesh.csv")
        assert (tmp_path / "mesh.csv").read_bytes() == buf.getvalue().encode()
        last = f"{m.n_points - 1},{format(m.b, '.17g')},"
        want = reference_columns_csv("k,t,h", (m.points[:-1], m.steps), first_index=0, footer=[last])
        assert buf.getvalue().split("\n") == want.split("\n")


# Signed zero, the smallest subnormal, the largest finite and the smallest
# normal double.
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
                2.2250738585072014e-308, -2.2250738585072014e-308]
_SEAM_ROWS = (1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 3)
_LINE_TEXT = st.text(alphabet="%#=,.-+0123456789eghkst ", max_size=12)


class TestWriteColumns:
    @given(
        rows=st.sampled_from(_SEAM_ROWS),
        n_columns=st.integers(1, 4),
        first_index=st.none() | st.integers(0, 2**53 - 2 * _BLOCK_ROWS - 3),
        drawn=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=16),
        header=_LINE_TEXT,
        footer=st.lists(_LINE_TEXT, max_size=2),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(rows=_BLOCK_ROWS + 1, n_columns=2, first_index=2**53 - 2 * _BLOCK_ROWS - 3,
             drawn=[1.0], header="k,a,b", footer=["# x=%d"], seed=0)
    @settings(max_examples=40, deadline=None)
    def test_matches_the_per_cell_oracle(self, rows, n_columns, first_index, drawn, header, footer, seed):
        rng = np.random.default_rng(seed)
        # Uniform bit patterns cover every exponent; the few non-finite ones become 0.
        bits = rng.integers(0, 2**64, size=(n_columns, rows), dtype=np.uint64)
        columns = np.nan_to_num(bits.view(np.float64), nan=0.0, posinf=0.0, neginf=0.0)
        special = np.array(drawn + _EDGE_FLOATS)
        for j in range(n_columns):
            for r in {0, _BLOCK_ROWS - 1, _BLOCK_ROWS, rows - 1}:
                if r < rows:
                    columns[j, r] = special[(r + j) % special.size]
            columns[j, rng.integers(0, rows, special.size)] = rng.permutation(special)
        buf = io.StringIO()
        _write_tables([(buf, header, list(columns), footer)], first_index=first_index)
        # Line lists give the same verdict as the strings and a short failure report.
        want = reference_columns_csv(header, columns, first_index, footer)
        assert buf.getvalue().split("\n") == want.split("\n")


class _Sink:
    """A text target that keeps only the number of characters written."""

    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text)

    def writelines(self, lines):
        for line in lines:
            self.write(line)


class TestWriteTables:
    @given(
        rows=st.sampled_from(_SEAM_ROWS),
        n_pool=st.integers(1, 3),
        picks=st.lists(st.lists(st.integers(0, 3), min_size=1, max_size=5), min_size=2, max_size=3),
        first_index=st.none() | st.integers(2**53 - 4 * _BLOCK_ROWS, 2**53),
        headers=st.lists(_LINE_TEXT, min_size=3, max_size=3),
        footer=st.lists(_LINE_TEXT, max_size=2),
        seed=st.integers(0, 2**32 - 1),
    )
    # Shared at different positions, one column twice in a table, the tuple column shared.
    @example(rows=2 * _BLOCK_ROWS + 3, n_pool=3, picks=[[0, 1, 3], [1, 1, 2, 0], [3, 2]],
             first_index=2**53 - 2 * _BLOCK_ROWS - 3, headers=["k,a,b,c", "k,b,b,c,a", "k,d,c"],
             footer=["# s=1"], seed=0)
    @example(rows=_BLOCK_ROWS, n_pool=1, picks=[[0], [0]], first_index=None,
             headers=["x", "y", ""], footer=[], seed=1)
    @settings(max_examples=40, deadline=None)
    def test_every_table_matches_the_per_cell_oracle(self, rows, n_pool, picks, first_index, headers,
                                                     footer, seed):
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2**64, size=(n_pool, rows), dtype=np.uint64)
        floats = np.nan_to_num(bits.view(np.float64), nan=0.0, posinf=0.0, neginf=0.0)
        special = np.array(_EDGE_FLOATS)
        for j in range(n_pool):
            floats[j, rng.integers(0, rows, special.size)] = rng.permutation(special)
        # The pool ends with a tuple of Python floats, as ``order.csv`` passes.
        pool = [*floats, tuple(rng.permutation(np.concatenate((floats[0], special))[:rows]).tolist())]
        tables = [[pool[i % len(pool)] for i in p] for p in picks]
        bufs = [io.StringIO() for _ in tables]
        write = functools.partial(_write_tables, [(buf, header, columns, footer)
                                                  for buf, header, columns in zip(bufs, headers, tables)],
                                  first_index=first_index)
        # The index is a float64 column, exact only below 2**53.
        if first_index is not None and first_index + rows > 2**53:
            with pytest.raises(ValueError, match=r"2\*\*53"):
                write()
            return
        write()
        for buf, header, columns in zip(bufs, headers, tables):
            want = reference_columns_csv(header, columns, first_index, footer)
            assert buf.getvalue().split("\n") == want.split("\n")

    def test_columns_of_unequal_length_are_refused(self):
        a, b = np.zeros(3), np.zeros(4)
        with pytest.raises(ValueError, match="needs 3 rows"):
            _write_tables([(io.StringIO(), "a", (a,), ()), (io.StringIO(), "a,b", (a, b), ())])

    def test_shared_columns_stream_block_by_block(self):
        # Streamed, the write below peaks near 1.8 MB; formatting one shared 10**5-row
        # column whole would hold about 7.8 MB of cell strings.
        n = 10**5
        t, approx, sld = np.random.default_rng(3).standard_normal((3, n))
        tables = [(_Sink(), "k,t,value", (t, approx), ()), (_Sink(), "k,t,approx,sld", (t, approx, sld), ())]
        tracemalloc.start()
        try:
            _write_tables(tables, first_index=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tables[1][0].size > 40 * n
        assert peak < 5e6


def _kernel_text(x) -> list[str]:
    """The cells ``_cells`` writes for ``x``, NULs dropped."""
    return [row.tobytes().replace(b"\0", b"").decode() for row in _cells(np.asarray(x, dtype=np.float64))]


def _percent_text(x) -> list[str]:
    return ["%.17g" % v for v in np.asarray(x, dtype=np.float64).tolist()]


def _kernel_edge_values() -> list[float]:
    """Named edge cases of the ``%.17g`` kernel, each with its negation."""
    values = [5e-324, 2 * 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.0, 1.0, 0.5,
              1e15 + 0.25, 1e15 + 0.75, 123456789012345.67, 12345678901234567.0]
    # Both sides of every power of ten, two doubles deep.
    for e in range(-323, 309):
        p = float(f"1e{e}")
        values += [p, math.nextafter(p, 0), math.nextafter(math.nextafter(p, 0), 0),
                   math.nextafter(p, math.inf), math.nextafter(math.nextafter(p, math.inf), math.inf)]
    # The notation switches: fixed from 1e-4, exponent below it and from 1e17.
    for p in (1e-5, 1e-4, 1e16, 1e17):
        values += [p * r for r in (0.5, 0.99999999999999989, 1.0000000000000002, 9.5)]
    return values + [-v for v in values]


def _carries(x: float) -> bool:
    """True when x is below a power of ten that its 17-digit rounding reaches."""
    e = math.floor(math.log10(x))
    for p in (e, e + 1):
        top = Fraction(10) ** p
        if Fraction(x) < top and top - Fraction(x) < Fraction(10) ** (p - 17) / 2:
            return True
    return False


_HAS_KERNEL = _kernel_tables() is not None
_needs_kernel = pytest.mark.skipif(not _HAS_KERNEL, reason="needs the 80-bit long double on a little-endian machine")


@_needs_kernel
class TestCellKernel:
    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 2047), st.integers(0, 2**52 - 1)),
                    min_size=1, max_size=64))
    @example([(False, 0, 0), (True, 0, 0), (False, 0, 1), (True, 0, 2**52 - 1), (False, 2046, 2**52 - 1),
              (False, 2047, 0), (True, 2047, 0), (False, 2047, 1)])
    @settings(max_examples=200, deadline=None)
    def test_matches_percent_on_raw_bit_patterns(self, fields):
        # Every exponent field: subnormals, +-0, the largest finite, inf and nan.
        bits = np.array([(s << 63) | (e << 52) | m for s, e, m in fields], dtype=np.uint64)
        x = bits.view(np.float64)
        assert _kernel_text(x) == _percent_text(x)

    def test_matches_percent_on_the_named_edge_values(self):
        values = _kernel_edge_values()
        carried = [v for v in values if v > 0 and _carries(v)]
        assert len(carried) >= 10  # e.g. 1e-14 and 1e98, written "1e-14" and "1e+98"
        assert any("e-3" in s for s in _percent_text(values))
        assert _kernel_text(values) == _percent_text(values)

    def test_cells_the_product_cannot_decide_go_to_percent(self):
        power = _kernel_tables()[1]
        # Rounded in long double, these products land on the wrong side of a
        # half: the 17th digit would be off by one without the margin.
        for v in (4.835926947728293e-226, 6.661863177861465e-74, 7.555760759750064e-24):
            e = math.floor(math.log10(v))
            product = np.longdouble(v) * power[e + 324]
            assert int(np.rint(product)) != round(Fraction(v) * Fraction(10) ** (16 - e))
            assert _kernel_text([v, -v]) == _percent_text([v, -v])
        # 17 significant digits of 1e15 + 0.25 end in an exact half, which %
        # rounds to even.
        for v, want in ((1e15 + 0.25, "1000000000000000.2"), (1e15 + 0.75, "1000000000000000.8")):
            assert (Fraction(v) * 10) % 1 == Fraction(1, 2)
            assert _kernel_text([v, -v]) == [want, "-" + want]

    def test_its_tables_are_exact(self):
        floor, power, margin = _kernel_tables()[:3]
        for e in range(-324, 310):
            f = floor[e + 324]
            if e == 309:
                assert f == math.inf
                continue
            assert Fraction(f) >= Fraction(10) ** e > Fraction(math.nextafter(f, 0))
        for e in range(-324, 309):
            k = 16 - e
            num, den = power[e + 324].as_integer_ratio()
            err = abs(Fraction(num, den) - Fraction(10) ** k) / Fraction(10) ** k
            assert err == 0 if 0 <= k <= 27 else 0 < err <= Fraction(1, 2**64)
            assert margin[e + 324] == (2.0**-63 if err == 0 else 2.0**-62)

    @given(st.data(), st.integers(1, 300))
    @settings(max_examples=60, deadline=None)
    def test_index_cells_match_percent_d(self, data, n):
        # The index column is float64, written by the same kernel as every other cell.
        start = data.draw(st.integers(0, 2**53 - n)
                          | st.sampled_from([0, 9_990, 99_999_990, 10**12 - 5, 2**53 - n]))
        assert _kernel_text(np.arange(start, start + n, dtype=np.float64)) == ["%d" % k for k in range(start, start + n)]

    def test_it_formats_its_own_cells(self, monkeypatch):
        # A cell handed to ``%`` is written with FLOAT_FORMAT; as ".17e" it has
        # 18 significant digits, which no "%.17g" cell has, so it shows.
        rng = np.random.default_rng(2026)
        x = rng.integers(0, 2**64, 11_000, dtype=np.uint64).view(np.float64)
        x = x[np.isfinite(x)][:10_000]
        indices = np.concatenate([np.arange(10_000.0), rng.integers(0, 2**53, 10_000).astype(np.float64)])
        before = _kernel_text(x), _kernel_text(indices)
        monkeypatch.setattr(nufd.mesh, "FLOAT_FORMAT", ".17e")
        after = _kernel_text(x), _kernel_text(indices)
        assert x.size == 10_000 and np.ptp(np.frexp(x)[1]) > 2000  # across the exponent range
        assert sum(a != b for a, b in zip(before[0], after[0])) <= 0.03 * x.size
        assert before[1] == after[1]

    def test_each_block_makes_one_kernel_call(self, monkeypatch):
        calls = []

        def counted(x):
            calls.append(x.size)
            return _cells(x)

        monkeypatch.setattr(nufd.mesh, "_cells", counted)
        rows = 2 * _BLOCK_ROWS + 3
        t, a, b = np.random.default_rng(6).standard_normal((3, rows))
        bufs = [io.StringIO(), io.StringIO()]
        _write_tables([(bufs[0], "k,t,a", (t, a), ()), (bufs[1], "k,t,b,a", (t, b, a), ())], first_index=7)
        # Three blocks, each formatting the index, t, a and b once.
        assert calls == [4 * _BLOCK_ROWS, 4 * _BLOCK_ROWS, 4 * 3]
        assert bufs[1].getvalue() == reference_columns_csv("k,t,b,a", (t, b, a), 7)

    def test_short_tables_keep_percent(self, monkeypatch):
        def refuse(x):
            raise AssertionError("a short table reached the kernel")

        monkeypatch.setattr(nufd.mesh, "_cells", refuse)
        x = np.random.default_rng(2).standard_normal(_KERNEL_ROWS - 1)
        buf = io.StringIO()
        _write_tables([(buf, "k,x", (x,), ())], first_index=0)
        assert buf.getvalue() == reference_columns_csv("k,x", (x,), 0)

    def test_unindexed_tables_take_the_kernel(self, monkeypatch):
        calls = []

        def counted(x):
            calls.append(x.size)
            return _cells(x)

        monkeypatch.setattr(nufd.mesh, "_cells", counted)
        x = np.random.default_rng(2).standard_normal(_KERNEL_ROWS)
        buf = io.StringIO()
        _write_tables([(buf, "x", (x,), ())])
        assert calls == [_KERNEL_ROWS]
        assert buf.getvalue() == reference_columns_csv("x", (x,), None)

    def test_without_an_80_bit_long_double_every_table_takes_percent(self, monkeypatch):
        x = np.array(_kernel_edge_values())
        y = np.random.default_rng(4).standard_normal(x.size)
        kernel = io.StringIO()
        _write_tables([(kernel, "k,x,y", (x, y), ())], first_index=0)
        monkeypatch.setattr(nufd.mesh, "_kernel_tables", lambda: None)
        percent = io.StringIO()
        _write_tables([(percent, "k,x,y", (x, y), ())], first_index=0)
        assert kernel.getvalue() == percent.getvalue() == reference_columns_csv("k,x,y", (x, y), 0)
