"""Arena pack/unpack: zero-copy views, dedup, alignment."""

import json
import pickle

import numpy as np
import pytest

from repro.nn import Tensor
from repro.nn.arena import ARENA_ALIGN, pack, unpack


def _payload():
    shared = np.arange(12, dtype=np.float64).reshape(3, 4)
    return {
        "a": shared,
        "b": shared,  # same object twice — identity must survive
        "ints": np.arange(5, dtype=np.int32),
        "flags": np.array([True, False]),
        "text": "hello",
        "nested": {"deep": [np.ones(3), 7]},
    }


class TestRoundTrip:
    def test_values_and_dtypes_survive(self):
        packed = pack(_payload())
        out = unpack(packed.skeleton, packed.manifest, packed.arena)
        np.testing.assert_array_equal(out["a"], _payload()["a"])
        assert out["ints"].dtype == np.int32
        assert out["flags"].dtype == np.bool_
        assert out["text"] == "hello"
        np.testing.assert_array_equal(out["nested"]["deep"][0], np.ones(3))

    def test_shared_arrays_stay_shared(self):
        packed = pack(_payload())
        out = unpack(packed.skeleton, packed.manifest, packed.arena)
        assert out["a"] is out["b"]
        # ...and deduplication means one arena slot, not two.
        shapes = [tuple(e["shape"]) for e in packed.manifest["entries"]]
        assert shapes.count((3, 4)) == 1

    def test_views_are_zero_copy_and_read_only(self):
        packed = pack(_payload())
        out = unpack(packed.skeleton, packed.manifest, packed.arena)
        assert np.shares_memory(out["a"], packed.arena)
        assert not out["a"].flags.writeable
        with pytest.raises(ValueError):
            out["a"][0, 0] = 99.0

    def test_copy_mode_gives_private_writable_arrays(self):
        packed = pack(_payload())
        out = unpack(packed.skeleton, packed.manifest, packed.arena, copy=True)
        assert out["a"].flags.writeable
        assert not np.shares_memory(out["a"], packed.arena)
        out["a"][0, 0] = 99.0  # must not raise

    def test_bytes_buffer_accepted(self):
        packed = pack(_payload())
        out = unpack(packed.skeleton, packed.manifest, packed.arena.tobytes())
        np.testing.assert_array_equal(out["a"], _payload()["a"])

    def test_non_contiguous_input(self):
        arr = np.arange(24, dtype=np.float64).reshape(4, 6)[:, ::2]
        packed = pack({"strided": arr})
        out = unpack(packed.skeleton, packed.manifest, packed.arena)
        np.testing.assert_array_equal(out["strided"], arr)

    def test_empty_and_scalar_shaped_arrays(self):
        obj = {"empty": np.zeros((0, 3)), "scalar": np.array(3.5)}
        packed = pack(obj)
        out = unpack(packed.skeleton, packed.manifest, packed.arena)
        assert out["empty"].shape == (0, 3)
        assert out["scalar"].shape == ()
        assert float(out["scalar"]) == 3.5


class TestManifest:
    def test_offsets_are_aligned(self):
        packed = pack(_payload())
        assert all(
            e["offset"] % ARENA_ALIGN == 0
            for e in packed.manifest["entries"]
        )

    def test_manifest_is_json_serialisable(self):
        packed = pack(_payload())
        restored = json.loads(json.dumps(packed.manifest))
        out = unpack(packed.skeleton, restored, packed.arena)
        np.testing.assert_array_equal(out["a"], _payload()["a"])

    def test_unknown_manifest_rejected(self):
        packed = pack(_payload())
        with pytest.raises(ValueError):
            unpack(packed.skeleton, {"format": "tarball"}, packed.arena)

    def test_object_arrays_ride_in_the_skeleton(self):
        obj = {"objs": np.array([1, "x"], dtype=object)}
        packed = pack(obj)
        assert packed.manifest["entries"] == []
        out = unpack(packed.skeleton, packed.manifest, packed.arena)
        assert list(out["objs"]) == [1, "x"]


class TestTensorPickling:
    def test_tensor_round_trips_as_leaf(self):
        t = Tensor(np.ones((2, 3)), requires_grad=True, name="w")
        clone = pickle.loads(pickle.dumps(t))
        np.testing.assert_array_equal(clone.data, t.data)
        assert clone.requires_grad and clone.name == "w"
        assert clone.grad is None and clone._parents == ()

    def test_graph_state_is_dropped_not_pickled(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = (a * 2.0).sum()  # has _backward closure + parents
        clone = pickle.loads(pickle.dumps(b))
        assert clone._backward is None
        assert clone._parents == ()

    def test_tensor_inside_arena_pack(self):
        t = Tensor(np.arange(6, dtype=np.float64), requires_grad=True)
        packed = pack({"t": t})
        out = unpack(packed.skeleton, packed.manifest, packed.arena)
        assert isinstance(out["t"], Tensor)
        assert np.shares_memory(out["t"].data, packed.arena)
