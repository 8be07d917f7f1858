"""Walk through the basic measurement pipeline on an unsharp qubit.

Build a two-outcome device of tunable strength, read off its effects and
outcome probabilities, collapse a state by hand, and sample seeded shots.
"""

import numpy as np

from qmeter import catalog, haar

# A measurement of strength 0.6: strong enough to learn something, weak
# enough to leave the state mostly intact.
device = catalog.unsharp_qubit(0.6)
print("device:", device)
for s in (1, 2):
    print(f"  M_{s} =\n{np.round(device.kraus_op(s).real, 6)}")
    diag = [round(float(x), 6) for x in np.diag(device.effects[s - 1]).real]
    print(f"  E_{s} = diag{tuple(diag)}")

# Outcome statistics for the balanced superposition.
plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
print("\ninput state (|0> + |1>)/sqrt(2)")
print("outcome probabilities:", device.outcome_distribution(plus))

# Conditioning on the '+' outcome pulls the state toward |0>.
post = device.collapse(plus, 1)
print("state after outcome '+':", np.round(post, 6))
print("weight on |0> went from 0.5 to", round(abs(post[0]) ** 2, 6))

# Seeded sampling: same stream, same record, every run. All 20 uniforms come
# from one draw, exactly as 20 single-shot calls would consume them.
gen = haar.RngStream(seed=42, stream_index=1).generator()
outcomes, _ = device.sample_outcomes(plus, gen, shots=20)
record = outcomes.tolist()
print("\n20 seeded shots:", record)

counts = np.bincount(record, minlength=3)[1:]
print("frequencies:", counts / counts.sum())

# The same works for any dimension; here is a qutrit projective measurement.
qutrit = catalog.projective(3)
psi = haar.haar_state(3, haar.RngStream(7))
print("\nHaar-random qutrit state:", np.round(psi, 4))
print("projective probabilities:", np.round(qutrit.outcome_distribution(psi), 4))
