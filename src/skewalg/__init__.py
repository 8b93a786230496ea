"""skewalg: exact-arithmetic partial groupoid actions, skew groupoid rings,
and separability certificates for the extension A in A*G."""

from .algebra import Algebra, AlgebraError, NotCentralIdempotent
from .groupoid import (ComponentPartition, Groupoid, GroupoidError,
                       UnknownObject, ValidationReport, Violation,
                       build_groupoid, validate_groupoid)
from .linalg import (AffineSolutionSet, DimensionMismatch, Echelon, Field,
                     LinalgError, Matrix, echelon, kernel, solve_affine)
from .partial_action import (ActionError, DecompositionRequired, PartialAction,
                             validate_partial_action)
from .separability import (ComponentVerdict, EmptyHomSet, IsotropyIso,
                           NotGlobal, OracleResult, SeparabilityCertificate,
                           SeparabilityVerdict, TransportResult,
                           WitnessInvalid, build_certificate, cross_check,
                           decide_global, decide_separability, extract_witness,
                           is_witness, isotropy_transport_psi,
                           isotropy_witness_transport, oracle_separability,
                           trace_between, trace_into, trace_total)
from .skew_ring import (InvalidSizeCap, SkewRing, SkewRingError, TensorOverA,
                        TensorTooLarge, build_skew_ring, tensor_over)

__version__ = "0.1.0"
