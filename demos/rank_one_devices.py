"""Rank-one Kraus operators: the post-measurement state is known exactly.

When every M_s = sqrt(w_s) |post_s><pre_s| has rank one, the conditional
state after outcome s is |post_s> no matter what went in, so g_post = 1.
The pre-states must form an overcomplete basis (their weighted projectors
resolve the identity) but the post-states are completely free, and the
number of outcomes may exceed the dimension.
"""

import numpy as np

from qmeter import catalog, estimator, haar

# Four pre-states at tetrahedral Bloch directions, weights 1/2: a qubit
# device with four outcomes.
device = catalog.tetrahedron_rank_one()
print("tetrahedron device:", device)
print("effects sum to identity, defect:", device.completeness_defect)
report = estimator.check_bound(device)
print("g_post =", report.g_post, " g_pre =", report.g_pre)

# Swap in arbitrary post-states; the information about the input (g_pre) and
# the certainty about the output (g_post) do not move.
posts = list(haar.haar_states(2, 4, seed=21))
redirected = catalog.tetrahedron_rank_one(posts)
print("\nwith Haar-random post-states:")
report = estimator.check_bound(redirected)
print("g_post =", report.g_post, " g_pre =", report.g_pre)

# Shot-by-shot confirmation: the collapsed state is the declared post-state.
gen = haar.RngStream(22).generator()
print("\nfive shots on a random input:")
psi = haar.haar_state(2, haar.RngStream(23))
outcomes, collapsed = redirected.sample_outcomes(psi, gen, 5)
for shot, s in enumerate(outcomes.tolist(), 1):
    fidelity = abs(np.vdot(posts[s - 1], collapsed[s])) ** 2
    print(f"  shot {shot}: outcome {s}, overlap with declared post-state = {fidelity:.12f}")

# Build your own: any overcomplete pre-basis works. Here, three equatorial
# directions at 120 degrees with weights 2/3 (a trine measurement).
angles = [0.0, 2 * np.pi / 3, 4 * np.pi / 3]
pres = [np.array([np.cos(a / 2), np.sin(a / 2)]) for a in angles]
# Bloch vectors in the x-z plane at the three angles sum to zero.
trine = estimator.make_rank_one_device(pres, pres, weights=[2.0 / 3] * 3)
report = estimator.check_bound(trine)
print("\ntrine device: n =", trine.n_outcomes, " g_post =", report.g_post, " g_pre =", round(report.g_pre, 6))
