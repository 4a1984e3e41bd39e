"""quditzx: qudit ZX/ZH diagram calculus with tunable discrete-integral semantics.

The package is organized bottom-up:

- :mod:`quditzx.measure` — signed residues mod D, the weighted counting
  measure, and the phase constants omega/tau.
- :mod:`quditzx.tensor` — dense complex tensors H^m -> H^n, their
  comparison and their dump format.
- :mod:`quditzx.generators` — amplitude functions and the semantic map
  for the eight dot/box generators.
- :mod:`quditzx.diagram` — open-graph diagrams and their evaluation by
  contraction.
- :mod:`quditzx.gauss` — quadratic Gauss sums and the normalized
  quadratic integral Gamma, in closed form with brute-force oracles.
- :mod:`quditzx.rewrite` — the machine-checkable rewrite-rule catalog
  and soundness checking.
- :mod:`quditzx.construct` — named gadget builders and the normal-form
  synthesizer.
- :mod:`quditzx.cli` — command-line interface.
"""

import importlib

# each public name and the submodule it lives in; the submodule is
# imported on first use of one of its names (PEP 562), so a command that
# needs only `measure` never compiles the rule catalog
_HOMES = {
    "CATALOG": "rewrite",
    "Char": "generators",
    "Diagram": "diagram",
    "DiagramBuilder": "diagram",
    "Generator": "generators",
    "Indicator": "generators",
    "MeasureContext": "measure",
    "One": "generators",
    "OverflowGuardError": "measure",
    "Phase": "generators",
    "PhaseVec": "generators",
    "Stab": "generators",
    "Table": "generators",
    "Tensor": "tensor",
    "UnitPow": "generators",
    "build": "construct",
    "check_all": "rewrite",
    "check_soundness": "rewrite",
    "eval_generator": "generators",
    "evaluate": "diagram",
    "evaluate_many": "diagram",
    "gadget_id": "construct",
    "gamma": "gauss",
    "gauss_sum": "gauss",
    "get_rule": "rewrite",
    "normal_form": "construct",
    "target_tensor": "construct",
}

__all__ = sorted(_HOMES)
__version__ = "0.1.0"


def __getattr__(name: str):
    """A public name, or a submodule that the eager imports used to load, on first use."""
    if name in _HOMES.values():
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
    return value
