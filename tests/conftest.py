import importlib
import pkgutil

import pytest

import qaclab
from qaclab import numerics
from qaclab.numerics import Exact
from qaclab.qstate import StateVector


@pytest.fixture
def exact_stays_exact(monkeypatch):
    """Every conversion of an exact value to floats raises: each qaclab
    module's ``to_float``, ``Exact.__complex__`` and ``__float__``, and
    ``StateVector.to_float`` of an exact state (a float state's is
    itself)."""
    def refuse(*args):
        raise AssertionError("an exact route converted to float")

    original = numerics.to_float
    modules = [qaclab] + [importlib.import_module(f"qaclab.{m.name}")
                          for m in pkgutil.iter_modules(qaclab.__path__)]
    for module in modules:
        if getattr(module, "to_float", None) is original:
            monkeypatch.setattr(module, "to_float", refuse)
    monkeypatch.setattr(Exact, "__complex__", refuse)
    monkeypatch.setattr(Exact, "__float__", refuse, raising=False)
    float_state = StateVector.to_float
    monkeypatch.setattr(StateVector, "to_float",
                        lambda psi: refuse() if psi.is_exact else float_state(psi))
