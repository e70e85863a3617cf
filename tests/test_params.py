import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradmerge.errors import (
    CorruptCheckpointError,
    IoError,
    LayoutError,
    NumericError,
    SingularCurvatureError,
)
from gradmerge.merging import MergeInputs, merge_task_arithmetic, merge_uncertainty, remove_task
from gradmerge.models import ModelSpec
from gradmerge.params import (
    Checkpoint,
    DiagCurvature,
    ParamLayout,
    ParamVector,
    load_checkpoint,
    save_checkpoint,
)

LAYOUT3 = ParamLayout((("w", (3,)),))
LAYOUT1 = ParamLayout((("w", (1,)),))


def vec(values, layout=None):
    values = np.atleast_1d(np.asarray(values, dtype=float))
    layout = layout or ParamLayout((("w", (values.size,)),))
    return ParamVector(layout, values)


def diag(values, layout=None):
    values = np.atleast_1d(np.asarray(values, dtype=float))
    layout = layout or ParamLayout((("w", (values.size,)),))
    return DiagCurvature(layout, values)


class TestParamLayout:
    def test_total_len_sums_shape_products(self):
        layout = ParamLayout((("w1", (4, 3)), ("b1", (4,)), ("w2", (4,)), ("b2", (1,))))
        assert layout.total_len == 12 + 4 + 4 + 1

    def test_duplicate_names_rejected(self):
        with pytest.raises(LayoutError):
            ParamLayout((("w", (2,)), ("w", (3,))))

    def test_empty_name_rejected(self):
        with pytest.raises(LayoutError):
            ParamLayout((("", (2,)),))

    def test_nonpositive_shape_rejected(self):
        with pytest.raises(LayoutError):
            ParamLayout((("w", (0,)),))

    @pytest.mark.parametrize("size", [2.5, 2.0, "2", True])
    def test_non_integer_shape_rejected(self, size):
        with pytest.raises(LayoutError):
            ParamLayout((("w", (size,)),))

    def test_slices_are_contiguous_in_order(self):
        # Each entry owns the next run of the flat vector, in the order the
        # layout lists it; the MLP forward pass reads its tensors there.
        spec = ModelSpec("mlp", 2, hidden=3, activation="tanh")
        layout = spec.layout()
        v = ParamVector(layout, np.arange(layout.total_len, dtype=float))
        assert [name for name, _ in layout.entries] == ["w1", "b1", "w2", "b2"]
        start = 0
        for (_, shape), view in zip(layout.entries, spec._mlp_views(v.values)):
            size = math.prod(shape)
            np.testing.assert_array_equal(np.ravel(view), v.values[start : start + size])
            start += size
        assert start == layout.total_len

    def test_cached_derived_fields_leave_equality_and_hash_alone(self):
        entries = (("a", (2, 3)), ("b", (4,)))
        used, fresh = ParamLayout(entries), ParamLayout(entries)
        assert used.total_len == 10
        assert used == fresh and hash(used) == hash(fresh)
        assert used != ParamLayout((("a", (2, 3)), ("c", (4,))))


class TestParamVector:
    def test_length_mismatch_rejected(self):
        with pytest.raises(LayoutError):
            ParamVector(LAYOUT3, np.zeros(2))

    def test_nan_rejected(self):
        with pytest.raises(NumericError):
            ParamVector(LAYOUT3, [1.0, np.nan, 0.0])

    def test_inf_rejected(self):
        with pytest.raises(NumericError):
            ParamVector(LAYOUT3, [1.0, np.inf, 0.0])

    def test_values_read_only(self):
        v = vec([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            v.values[0] = 9.0

    def test_tensor_view_reshapes(self):
        spec = ModelSpec("mlp", 2, hidden=2, activation="tanh")
        v = ParamVector(spec.layout(), np.arange(1.0, 10.0))
        w1, b1, _, _ = spec._mlp_views(v.values)
        assert w1.shape == (2, 2)
        np.testing.assert_array_equal(b1, [5.0, 6.0])
        assert np.shares_memory(w1, v.values)


class TestDiagCurvature:
    def test_negative_rejected(self):
        with pytest.raises(NumericError):
            DiagCurvature(LAYOUT3, [1.0, -1e-12, 0.0])

    def test_zero_allowed(self):
        d = DiagCurvature.zeros(LAYOUT3)
        assert np.all(d.values == 0.0)


def weighted_sum(terms):
    """``sum_k w_k v_k`` through the merge kernel: task arithmetic around a
    zero anchor, so each term's increment is the vector itself."""
    layout = terms[0][1].layout
    zero = Checkpoint(ParamVector(layout, np.zeros(layout.total_len)))
    tasks = tuple((w, Checkpoint(v)) for w, v in terms)
    return merge_task_arithmetic(MergeInputs(anchor=zero, tasks=tasks))


class TestCombine:
    """Weighted sums of parameter vectors, the linear part of every merge."""

    def test_identity(self):
        v = vec([1.0, -2.0, 3.5])
        out = weighted_sum([(1.0, v)])
        np.testing.assert_array_equal(out.values, v.values)

    def test_convexity_on_equal_inputs(self):
        v = vec([1.0, -2.0, 3.5])
        out = weighted_sum([(0.5, v), (0.5, v)])
        np.testing.assert_allclose(out.values, v.values, atol=1e-15)

    def test_layout_mismatch_rejected(self):
        with pytest.raises(LayoutError):
            weighted_sum([(1.0, vec([1.0])), (1.0, vec([1.0, 2.0]))])

    @given(
        st.lists(
            st.tuples(
                st.floats(-3, 3),
                st.lists(st.floats(-1e6, 1e6), min_size=4, max_size=4),
            ),
            min_size=2,
            max_size=6,
        ),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_permutation_invariance(self, raw_terms, rnd):
        layout = ParamLayout((("w", (4,)),))
        terms = [(w, ParamVector(layout, vals)) for w, vals in raw_terms]
        shuffled = list(terms)
        rnd.shuffle(shuffled)
        a = weighted_sum(terms).values
        b = weighted_sum(shuffled).values
        np.testing.assert_allclose(a, b, atol=1e-12 * max(1.0, np.abs(a).max()))


class TestPreconditionCombine:
    """The curvature-preconditioned update ``anchor + sum_t alpha_t (h0 +
    h_t) / hbar * (theta_t - anchor)``.  ``merge_uncertainty`` pools
    ``hbar`` itself; ``remove_task`` takes it explicitly and flips the
    sign of the step.  Both read ``h0`` from the anchor checkpoint."""

    def test_zero_increments_return_anchor(self):
        anchor = vec([1.0, -1.0, 2.0])
        h = diag([1.0, 2.0, 3.0], anchor.layout)
        base = Checkpoint(anchor, curvature=h)
        out = merge_uncertainty(MergeInputs(anchor=base, tasks=((1.0, base),)))
        np.testing.assert_array_equal(out.values, anchor.values)

    def test_single_task_identity_preconditioner_recovers_task(self):
        anchor = vec([0.0, 0.0])
        theta = vec([2.0, -3.0], anchor.layout)
        ones = diag([1.0, 1.0], anchor.layout)
        zeros = DiagCurvature.zeros(anchor.layout)
        inputs = MergeInputs(
            anchor=Checkpoint(anchor, curvature=ones),
            tasks=((1.0, Checkpoint(theta, curvature=zeros)),),
        )
        out = merge_uncertainty(inputs)
        np.testing.assert_allclose(out.values, theta.values, atol=1e-15)

    def test_two_task_scalar_fixture(self):
        # 1-D fixture: anchor 0, thetas 1 and 2, unit anchor and task
        # curvatures, pooled curvature 3.  Both increments get weight
        # (1+1)/3, so the output is 2/3 + 4/3 = 2.0, which equals the
        # jointly trained closed-form solution for the same data.
        anchor = vec([0.0])
        one = diag([1.0], anchor.layout)
        inputs = MergeInputs(
            anchor=Checkpoint(anchor, curvature=one),
            tasks=(
                (1.0, Checkpoint(vec([1.0], anchor.layout), curvature=one)),
                (1.0, Checkpoint(vec([2.0], anchor.layout), curvature=one)),
            ),
        )
        out = merge_uncertainty(inputs)
        np.testing.assert_allclose(out.values, [2.0], atol=1e-12)

    def test_nonpositive_hbar_rejected(self):
        anchor = vec([0.0, 0.0])
        one = diag([1.0, 1.0], anchor.layout)
        bad = DiagCurvature(anchor.layout, [1.0, 0.0])
        task = (1.0, Checkpoint(anchor, curvature=one))
        with pytest.raises(SingularCurvatureError):
            remove_task(MergeInputs(Checkpoint(anchor, one), (task,)), hbar_minus=bad)

    def test_layout_mismatch_rejected(self):
        anchor = vec([0.0, 0.0])
        one = diag([1.0, 1.0], anchor.layout)
        theta = vec([1.0])
        task = (1.0, Checkpoint(theta, curvature=diag([1.0], theta.layout)))
        with pytest.raises(LayoutError):
            remove_task(MergeInputs(Checkpoint(anchor, one), (task,)), hbar_minus=one)

    @given(
        st.floats(1e-6, 1e6),
        st.lists(st.floats(-10, 10), min_size=3, max_size=3),
        st.lists(st.floats(0.01, 10), min_size=3, max_size=3),
        st.lists(st.floats(0.0, 10), min_size=3, max_size=3),
        st.lists(st.floats(0.01, 10), min_size=3, max_size=3),
    )
    @settings(max_examples=50, deadline=None)
    def test_scale_invariance(self, c, theta, h0, ht, hbar):
        layout = ParamLayout((("w", (3,)),))

        def step(scale):
            anchor = Checkpoint(ParamVector(layout, [0.5, -0.5, 1.0]), DiagCurvature(layout, scale * np.asarray(h0)))
            curv = DiagCurvature(layout, scale * np.asarray(ht))
            task = (0.7, Checkpoint(ParamVector(layout, theta), curvature=curv))
            return remove_task(MergeInputs(anchor, (task,)), hbar_minus=DiagCurvature(layout, scale * np.asarray(hbar))).values

        base = step(1.0)
        np.testing.assert_allclose(step(c), base, atol=1e-12 * max(1.0, np.abs(base).max()))


class TestCheckpointIO:
    def make_ckpt(self, with_curvature):
        layout = ParamLayout((("w", (3,)),))
        params = ParamVector(layout, [1.5, -2.25, 0.0])
        curvature = DiagCurvature(layout, [0.5, 1.0, 2.0]) if with_curvature else None
        return Checkpoint(params, curvature, {"seed": "7", "note": "x"})

    def test_round_trip_bit_exact(self, tmp_path):
        ckpt = self.make_ckpt(True)
        stem = tmp_path / "ck"
        save_checkpoint(ckpt, stem)
        back = load_checkpoint(stem)
        assert back.layout == ckpt.layout
        assert back.params.values.tobytes() == ckpt.params.values.tobytes()
        assert back.curvature.values.tobytes() == ckpt.curvature.values.tobytes()
        assert back.meta == ckpt.meta

    def test_blob_size_without_curvature(self, tmp_path):
        save_checkpoint(self.make_ckpt(False), tmp_path / "ck")
        assert (tmp_path / "ck.f64le").stat().st_size == 24

    def test_blob_size_with_curvature(self, tmp_path):
        save_checkpoint(self.make_ckpt(True), tmp_path / "ck")
        assert (tmp_path / "ck.f64le").stat().st_size == 48

    def test_truncated_blob_rejected(self, tmp_path):
        stem = tmp_path / "ck"
        save_checkpoint(self.make_ckpt(True), stem)
        blob = (tmp_path / "ck.f64le").read_bytes()
        (tmp_path / "ck.f64le").write_bytes(blob[:-8])
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(stem)

    def test_missing_layout_key_rejected(self, tmp_path):
        stem = tmp_path / "ck"
        save_checkpoint(self.make_ckpt(False), stem)
        doc = json.loads((tmp_path / "ck.meta.json").read_text())
        del doc["layout"]
        (tmp_path / "ck.meta.json").write_text(json.dumps(doc))
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(stem)

    @pytest.mark.parametrize("size", [2.5, "3"])
    def test_non_integer_layout_shape_rejected(self, tmp_path, size):
        stem = tmp_path / "ck"
        save_checkpoint(self.make_ckpt(False), stem)
        doc = json.loads((tmp_path / "ck.meta.json").read_text())
        doc["layout"] = [["w", [size]]]
        (tmp_path / "ck.meta.json").write_text(json.dumps(doc))
        with pytest.raises(CorruptCheckpointError, match="non-integer shape"):
            load_checkpoint(stem)

    def test_non_boolean_has_curvature_rejected(self, tmp_path):
        # A truthy string must not make the loader read the blob's tail
        # as a curvature diagonal.
        stem = tmp_path / "ck"
        save_checkpoint(self.make_ckpt(True), stem)
        doc = json.loads((tmp_path / "ck.meta.json").read_text())
        doc["has_curvature"] = "no"
        (tmp_path / "ck.meta.json").write_text(json.dumps(doc))
        with pytest.raises(CorruptCheckpointError, match="has_curvature"):
            load_checkpoint(stem)

    @pytest.mark.parametrize(
        "key,value,match",
        [("meta", [["seed", "7"]], "non-string meta"), ("meta", {"seed": 7}, "non-string meta")],
        ids=["meta_not_an_object", "non_string_meta_value"],
    )
    def test_malformed_metadata_field_rejected(self, tmp_path, key, value, match):
        # A list of pairs is refused as ``meta``, although dict() would accept it.
        stem = tmp_path / "ck"
        save_checkpoint(self.make_ckpt(False), stem)
        doc = json.loads((tmp_path / "ck.meta.json").read_text())
        doc[key] = value
        (tmp_path / "ck.meta.json").write_text(json.dumps(doc))
        with pytest.raises(CorruptCheckpointError, match=match):
            load_checkpoint(stem)

    def test_missing_files_rejected(self, tmp_path):
        with pytest.raises(IoError):
            load_checkpoint(tmp_path / "nope")

    def test_nan_in_blob_rejected(self, tmp_path):
        stem = tmp_path / "ck"
        save_checkpoint(self.make_ckpt(False), stem)
        (tmp_path / "ck.f64le").write_bytes(np.array([1.0, np.nan, 2.0]).tobytes())
        with pytest.raises(NumericError):
            load_checkpoint(stem)

    def test_unparseable_meta_rejected(self, tmp_path):
        stem = tmp_path / "ck"
        save_checkpoint(self.make_ckpt(False), stem)
        (tmp_path / "ck.meta.json").write_text("{not json")
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(stem)

    def test_checkpoint_layout_mismatch_rejected(self):
        # The checkpoint's layout is its params' layout; a curvature
        # diagonal of another layout is refused.
        layout = ParamLayout((("w", (2,)),))
        other = ParamLayout((("w", (3,)),))
        with pytest.raises(LayoutError, match="curvature layout"):
            Checkpoint(ParamVector(layout, [1.0, 2.0]), DiagCurvature(other, [1.0, 1.0, 1.0]))

    def test_metadata_with_an_anchor_id_key_loads_unchanged(self, tmp_path):
        # Checkpoints written before the format dropped ``anchor_id`` still
        # carry the key; the loader ignores it.
        ckpt = self.make_ckpt(True)
        stem = tmp_path / "ck"
        save_checkpoint(ckpt, stem)
        doc = json.loads((tmp_path / "ck.meta.json").read_text())
        doc = {"layout": doc["layout"], "anchor_id": "anchor", **doc}
        (tmp_path / "ck.meta.json").write_text(json.dumps(doc, indent=2) + "\n")
        back = load_checkpoint(stem)
        assert back.layout == ckpt.layout
        assert back.params.values.tobytes() == ckpt.params.values.tobytes()
        assert back.curvature.values.tobytes() == ckpt.curvature.values.tobytes()
        assert back.meta == ckpt.meta

    @given(values=st.lists(st.floats(-1e300, 1e300, allow_nan=False), min_size=1, max_size=16))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, values):
        import tempfile

        layout = ParamLayout((("w", (len(values),)),))
        ckpt = Checkpoint(ParamVector(layout, values))
        with tempfile.TemporaryDirectory() as tmp:
            stem = f"{tmp}/c"
            save_checkpoint(ckpt, stem)
            back = load_checkpoint(stem)
        assert back.params.values.tobytes() == ckpt.params.values.tobytes()
