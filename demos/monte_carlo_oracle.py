"""Cross-check every closed form against brute-force Haar averaging.

The mean fidelities are defined as integrals over all pure input states.
Here we estimate each integral empirically from 100000 Haar-random states
and compare with the analytic value; everything lands within a few standard
errors, and the seeded sampler makes the comparison bit-reproducible.
"""

from qmeter import catalog, estimator, haar

SAMPLES = 100_000

devices = [
    ("projective (d=3)", catalog.projective(3)),
    ("identity (d=2)", catalog.identity_device(2)),
    ("unsharp 0.6", catalog.unsharp_qubit(0.6)),
    ("tetrahedron", catalog.tetrahedron_rank_one()),
    ("random (d=4, n=5)", catalog.random_device(4, 5, seed=11)),
]

print(f"Monte Carlo vs closed form at {SAMPLES} samples")
print(f"{'device':<20}{'quantity':<8}{'analytic':>12}{'MC mean':>12}{'std err':>11}{'sigmas':>8}")
for i, (name, device) in enumerate(devices):
    report = estimator.check_bound(device)
    pairs = estimator.estimate_pairs(device)  # every outcome's estimates from one stacked pass
    post, pre = [p.chi_post for p in pairs], [p.chi_pre for p in pairs]
    # All three averages from one Haar ensemble, as mc_g_post, mc_g_pre and mc_operation_fidelity give them.
    results = haar.mc_fidelities(device, post, pre, SAMPLES, seed=100 + i)
    rows = zip(("g_post", "g_pre", "F"), results, (report.g_post, report.g_pre, report.f_op))
    for quantity, mc, analytic in rows:
        std_error = mc.std_error
        if std_error > 1e-12:
            sigmas = f"{abs(mc.mean - analytic) / std_error:>8.2f}"
        else:
            std_error = 0.0  # integrand is constant for this device; drop the rounding noise
            sigmas = "   exact"
        print(f"{name:<20}{quantity:<8}{analytic:>12.6f}{mc.mean:>12.6f}"
              f"{std_error:>11.2e}{sigmas}")

print("\nwhy the sampler is trustworthy:")
states = haar.haar_states(2, SAMPLES, seed=0)
second = (abs(states[:, 0]) ** 2).mean()
fourth = (abs(states[:, 0]) ** 4).mean()
print(f"  E|<0|psi>|^2 = {second:.5f}  (exact 1/2 by unitary invariance)")
print(f"  E|<0|psi>|^4 = {fourth:.5f}  (exact 1/3 for d = 2)")

again = haar.mc_operation_fidelity(catalog.unsharp_qubit(0.6), SAMPLES, seed=5)
once = haar.mc_operation_fidelity(catalog.unsharp_qubit(0.6), SAMPLES, seed=5)
print(f"  same seed, same result, bit for bit: {once.mean == again.mean}")
