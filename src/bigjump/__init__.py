"""Heavy-tailed branching fixed point: calibrated laws, samplers, an exact
truncated-pmf oracle, closed-form tail asymptotics, and verification tooling.

The central object is the distributional fixed point

    X =d A + B_1 + ... + B_X

for an immigration count ``A`` with survival exactly ``1/(1+k)`` and an
offspring count ``B`` with mean ``b < 1`` and a tail at the boundary index 1.
The package computes the stationary law three independent ways (Markov-chain
sampling, cluster-expansion sampling, exact truncated-pmf fixed-point
iteration) and evaluates every closed-form tail predictor next to them.

The public surface is the modules (``model``, ``sampler``, ``oracle``,
``asymptotics``, ``stats``, ``cli``); importing the package loads none.
"""

__version__ = "0.1.0"
