"""The rewrite-rule catalog and its soundness checks.

Every rule in the catalog is a pair of diagram builders that denote the
same tensor.  check_soundness instantiates both sides at given
parameters and compares them numerically; check_all does so over a
matrix of rules, dimensions and random draws.  The last example builds
both sides of one fusion rule with instantiate and compares their
tensors, which is what the checker does for each draw.
"""

from quditzx import (
    CATALOG,
    MeasureContext,
    Phase,
    check_all,
    check_soundness,
    evaluate,
    get_rule,
)
from quditzx.rewrite import NU_ANY_RULES, instantiate
from quditzx.tensor import max_abs_diff

print(f"catalog size: {len(CATALOG)} rules")
print(f"normalization-independent subset: {sorted(NU_ANY_RULES)}")

print("\nspot checks at D=5:")
ctx = MeasureContext(5)
for rid, params in [
    ("ZX-GF", {"Theta": Phase(0.4), "Phi": Phase(1.3), "m1": 1, "n1": 1, "m2": 0, "n2": 1}),
    ("ZX-MH", {"u": 2}),
    ("ZH-HM", {"A": Phase(0.8), "B": Phase(2.1)}),
]:
    report = check_soundness(get_rule(rid), params, ctx)
    print(f"  {rid}: max_err={report['max_err']:.2e}  pass={report['pass']}")

print("\na small slice of the full matrix (D=2..4, 2 samples each):")
rows = check_all(range(2, 5), samples=2, seed=1, rules=["ZX-RS", "ZH-O", "ZX-ZSP"])
for row in rows:
    err = "-" if row["max_err"] is None else f"{row['max_err']:.1e}"
    print(f"  {row['rule']:7s} D={row['dim']} sample={row['sample']} {row['status']:4s} err={err}")

# the checker's view of one fusion: instantiate both sides of ZX-GF and
# compare their tensors
D = 4
ctx = MeasureContext(D)
params = {"Theta": Phase(0.3), "Phi": Phase(0.9), "m1": 1, "n1": 0, "m2": 0, "n2": 1}
lhs, rhs = instantiate(get_rule("ZX-GF"), params, ctx)
print(f"\nZX-GF at D={D}: left nodes {sorted(lhs.nodes)}, right nodes {sorted(rhs.nodes)}")
print(f"max |lhs - rhs| = {max_abs_diff(evaluate(lhs, ctx), evaluate(rhs, ctx)):.2e}")
