"""The neural baselines run in float32; float64 is only their test twin.

Two checks on one toy fit of each of the four neural baselines:

* no float64 anywhere in the stack: every op output, every gradient
  contribution, every parameter and every Adam moment is float32. Under
  numpy's promotion rules one float64 constant or helper array silently
  widens everything downstream of it, so a leak fails here, naming the
  op or backward that produced it and its caller;
* the fitted float32 weights, cast to the float64 twin, give the same
  labels and logits within 1e-4.
"""

import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from repro.models.neural_common import predict_logits
from repro.nn import Adam, Tensor
from tests.models.test_baselines import tiny_model

NEURAL = ["bilstm", "higru", "roberta", "deberta"]


def _where(frame) -> str:
    code = frame.f_code
    name = getattr(code, "co_qualname", code.co_name)  # qualname: 3.11+
    return f"{name} ({Path(code.co_filename).name}:{frame.f_lineno})"


def _site(frame) -> str:
    """A frame, then the first caller outside that frame's module: the
    op or backward that made an array, and who ran it."""
    caller = frame.f_back
    while caller is not None and caller.f_code.co_filename == frame.f_code.co_filename:
        caller = caller.f_back
    if caller is None:
        return _where(frame)
    return f"{_where(frame)} called from {_where(caller)}"


@contextmanager
def recording_leaks():
    """Yield the sites that produce a non-float32 array inside ``repro.nn``
    while the block runs."""
    found: list[str] = []

    def check(array, what: str, frame) -> None:
        if array.dtype != np.float32:
            found.append(f"{what} {array.dtype}: {_site(frame)}")

    make, accumulate, step = Tensor._make, Tensor._accumulate, Adam.step

    def traced_make(data, parents, backward):
        check(np.asarray(data), "op output", sys._getframe(1))
        return make(data, parents, backward)

    def traced_accumulate(self, grad):
        check(np.asarray(grad), "gradient", sys._getframe(1))
        accumulate(self, grad)

    def traced_step(self):
        step(self)
        for p, m, v in zip(self.parameters, self._m, self._v):
            for array, what in ((p.data, "parameter"), (p.grad, "grad"),
                                (m, "Adam m"), (v, "Adam v")):
                if array is not None:
                    check(array, what, sys._getframe(1))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Tensor, "_make", staticmethod(traced_make))
        patch.setattr(Tensor, "_accumulate", traced_accumulate)
        patch.setattr(Adam, "step", traced_step)
        yield found


@pytest.fixture(scope="module")
def toy_splits(small_dataset):
    splits = small_dataset.splits()
    return splits.train[:40], splits.validation[:10], splits.test[:16]


@pytest.mark.parametrize("name", NEURAL)
def test_float32_fit_has_no_float64_and_matches_its_twin(name, toy_splits, request):
    train, val, test = toy_splits
    model = tiny_model(name)
    with recording_leaks() as leaks:
        model.fit(train, val)
        probs = model.predict_proba(test)
        labels = model.predict(val + test)
        encoded = model.pipeline.encode(val + test)
        logits = predict_logits(model.network, model._forward, encoded)
    for pname, param in model.network.named_parameters():
        if param.data.dtype != np.float32:
            leaks.append(f"parameter {pname} {param.data.dtype}")
    if name in ("roberta", "deberta"):
        assert model.mlm_result.losses  # the MLM pass ran under the guard
    assert not leaks, "float64 in the float32 stack:\n" + "\n".join(
        dict.fromkeys(leaks)
    )
    assert probs.dtype == np.float64  # the one float64 output, by contract
    assert logits.dtype == np.float32

    # The same fitted weights, cast to the float64 twin.
    request.getfixturevalue("float64_twin")
    for param in model.network.parameters():
        param.data = param.data.astype(np.float64)
    twin_logits = predict_logits(model.network, model._forward, encoded)
    assert twin_logits.dtype == np.float64
    np.testing.assert_array_equal(model.predict(val + test), labels)
    np.testing.assert_array_equal(twin_logits.argmax(axis=-1), labels)
    np.testing.assert_allclose(twin_logits, logits, rtol=0, atol=1e-4)
