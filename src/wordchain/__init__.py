"""Growing random words: exact kernels, bridges, and boundary diagnostics.

The chain grows a balanced word over {a, b} by shuffling in one a and one b
per step, uniformly at random; the word at step n is uniform over the
C(2n, n) balanced words of size n.  This package computes its transition
kernels exactly in rational arithmetic, samples finite and infinite bridges
(h-transforms indexed by pairs of measures on [0,1]), estimates the
exchangeable-order statistics that parameterize the boundary, and ships the
closed-form exponential-rates special case.
"""

from .boundary import ConvergenceReport, convergence_report, kernel_ratio
from .bridges import (
    InfiniteBridge,
    harmonic_h,
    htransform_step_prob,
    sample_finite_bridge,
    simulate_forward,
)
from .errors import CapExceededError, SizeMismatchError, WordchainError, ZeroMassStateError
from .kernels import (
    backward_prob,
    dm_kernel,
    multi_step_prob,
    one_step_prob,
)
from .measures import (
    AtomicMeasure,
    AtomicPair,
    CanonicalPair,
    Exponential,
    MCEstimate,
    StepMeasure,
    canonicalize,
    empirical_pair,
    fixture_pairs,
    pattern_prob_exact,
    pattern_prob_mc,
    weak_distance,
)
from .orders import (
    LabeledLetter,
    OrderPrefix,
    OrderSampler,
    estimate_d,
    estimate_f,
    label_uniformly,
    moment_estimate,
)
from .plackett_luce import RatePair, pl_sample, pl_transition, pl_word_prob
from .rng import derive_rng
from .verify import bridge_conditional_check, empirical_identity_check
from .words import enumerate_balanced, random_subword, subword_count, successors, word_size

__version__ = "0.1.0"
