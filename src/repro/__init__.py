"""repro — reproduction of Flammini & Pérennès, "Lower bounds on systolic gossip".

The package has four layers:

* :mod:`repro.topologies` — the interconnection networks of the paper
  (Butterfly, Wrapped Butterfly, de Bruijn, Kautz) plus classic networks,
  and the ⟨α, ℓ⟩-separator constructions of Lemma 3.1;
* :mod:`repro.gossip` — the round/matching protocol model of Definition 3.1,
  systolic schedules (Definition 3.2) and an exact dissemination simulator;
* :mod:`repro.core` — the paper's contribution: delay digraphs, delay
  matrices, matrix-norm machinery, and the general / separator-refined /
  full-duplex / non-systolic lower bounds (Theorems 4.1 and 5.1,
  Corollary 4.4, Section 6);
* :mod:`repro.protocols` and :mod:`repro.experiments` — constructive upper
  bounds and the harness that regenerates every table of the paper;
* :mod:`repro.search` — schedule synthesis: local search over systolic
  periods with certified ``(found, lower_bound, gap)`` reports connecting
  the simulator to the paper's bounds;
* :mod:`repro.faults` — fault injection & robustness: Bernoulli / crash /
  adversarial fault models, a batched Monte-Carlo trial driver, and
  robustness metrics (plus the fault-aware ``robust_gossip_rounds``
  search objective).

Quick start::

    from repro import general_lower_bound, separator_lower_bound
    from repro.topologies.separators import family_parameters

    bound = general_lower_bound(4)              # e(4) = 1.8133...
    alpha, ell = family_parameters("WBF", 2)
    wbf = separator_lower_bound(alpha, ell, 4)  # 2.0218... for WBF(2, D)
"""

import numpy as _np

if not hasattr(_np, "bitwise_count"):  # added in NumPy 2.0
    raise ImportError(
        f"repro requires NumPy >= 2.0, found {getattr(_np, '__version__', 'unknown')}"
    )
del _np

from repro.core.certificates import LowerBoundCertificate, certify_protocol
from repro.core.delay import DelayDigraph
from repro.core.full_duplex import full_duplex_general_bound, full_duplex_separator_bound
from repro.core.general_bound import GeneralBound, general_lower_bound, theorem41_rounds
from repro.core.local_protocol import LocalProtocol
from repro.core.nonsystolic import (
    nonsystolic_general_bound,
    nonsystolic_separator_bound,
)
from repro.core.separator_bound import SeparatorBound, separator_lower_bound
from repro.exceptions import (
    BoundComputationError,
    ProtocolError,
    ReproError,
    SeparatorError,
    SimulationError,
    TopologyError,
    ValidationError,
)
from repro.faults import (
    AdversarialArcFaults,
    BernoulliArcFaults,
    CrashFaults,
    FaultTrialResult,
    monte_carlo,
    worst_case_gossip_time,
)
from repro.gossip.model import GossipProtocol, Mode, SystolicSchedule
from repro.gossip.simulation import broadcast_time, gossip_time, simulate, simulate_systolic
from repro.search import (
    GapReport,
    RobustnessSpec,
    SearchResult,
    certified_gap,
    synthesize_schedule,
)

__version__ = "1.1.0"

__all__ = [
    "__version__",
    # exceptions
    "ReproError",
    "TopologyError",
    "ProtocolError",
    "ValidationError",
    "SimulationError",
    "BoundComputationError",
    "SeparatorError",
    # gossip model / simulation
    "Mode",
    "GossipProtocol",
    "SystolicSchedule",
    "simulate",
    "simulate_systolic",
    "gossip_time",
    "broadcast_time",
    # lower bounds
    "LocalProtocol",
    "DelayDigraph",
    "GeneralBound",
    "general_lower_bound",
    "theorem41_rounds",
    "SeparatorBound",
    "separator_lower_bound",
    "full_duplex_general_bound",
    "full_duplex_separator_bound",
    "nonsystolic_general_bound",
    "nonsystolic_separator_bound",
    "LowerBoundCertificate",
    "certify_protocol",
    # schedule synthesis
    "SearchResult",
    "GapReport",
    "synthesize_schedule",
    "certified_gap",
    "RobustnessSpec",
    # fault injection & robustness
    "BernoulliArcFaults",
    "CrashFaults",
    "AdversarialArcFaults",
    "FaultTrialResult",
    "monte_carlo",
    "worst_case_gossip_time",
]
