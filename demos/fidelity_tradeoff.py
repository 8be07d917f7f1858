"""Information gain versus disturbance, in numbers.

Every device gets three figures of merit: g_post (how well the outgoing state
can be guessed), g_pre (how well the incoming one can be), and F (how little
the device disturbs). They cannot all be large at once: F is capped by a
bound that depends only on g_post, and the unsharp qubit family sits exactly
on that cap for every strength.
"""

import numpy as np

from qmeter import catalog, estimator

print(f"{'device':<28}{'g_post':>10}{'g_pre':>10}{'F':>10}  on the bound?")
rows = [
    ("identity (d=2)", catalog.identity_device(2)),
    ("unsharp 0.3", catalog.unsharp_qubit(0.3)),
    ("unsharp 0.6", catalog.unsharp_qubit(0.6)),
    ("unsharp 0.9", catalog.unsharp_qubit(0.9)),
    ("projective (d=2)", catalog.projective(2)),
    ("projective (d=4)", catalog.projective(4)),
    ("random (d=3, n=4)", catalog.random_device(3, 4, seed=1)),
]
for name, device in rows:
    report = estimator.check_bound(device)
    saturated = abs(report.bound_lhs - report.bound_rhs) < 1e-9
    print(
        f"{name:<28}{report.g_post:>10.6f}{report.g_pre:>10.6f}{report.f_op:>10.6f}"
        f"  {'saturated' if saturated else f'slack {report.bound_rhs - report.bound_lhs:.4f}'}"
    )

# The boundary curve itself: the largest F compatible with each g_post.
print("\nmaximal F for given g_post (d = 2):")
for g, f in estimator.domain_boundary(2, 6):
    bar = "#" * int(round(40 * f))
    print(f"  g_post = {g:.2f}  max F = {f:.4f}  {bar}")

# Higher dimensions squeeze the whole curve down.
print("\nmax F at g_post = 1 (perfectly known post-state), rising d:")
for d in (2, 4, 8, 16):
    _, f = estimator.tradeoff_bound(d, 1.0)
    print(f"  d = {d:>2}: F <= {f:.4f}")
print("  d -> inf: the curve flattens to F = 1 - g_post")

# Unitary kicks burn operation fidelity without buying any information.
base = catalog.unsharp_qubit(0.6)
kick = np.array([[0, 1], [1, 0]], dtype=complex)
kicked = catalog.with_kicks(base, [kick, np.eye(2)])
print("\nbit-flip kick on one outcome:")
print("  g_post unchanged:", estimator.check_bound(base).g_post, "->", estimator.check_bound(kicked).g_post)
print("  F drops:         ", round(estimator.operation_fidelity(base), 6),
      "->", round(estimator.operation_fidelity(kicked), 6))
print("  pure part recovers it:",
      round(estimator.operation_fidelity(estimator.pure_part(kicked)), 6))
