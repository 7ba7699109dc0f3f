"""matroidkit: exact structure analysis for desk-scale matroids.

Matroids are held as full 2^n rank tables over bit-packed subsets; minors
and duals are gathered from their parent's table and basis families are
derived from it.  On top: connectivity calculus, special 3-separator
detection, minor search, detachable-pair search, and an executable registry
of structural properties.
"""

from .core import (AxiomViolation, CardinalityMismatch, EmptyFamily,
                   GroundSetExhausted, Matroid, MatroidError, bit, elems,
                   is_isomorphic, mask_of, popcount, validate)
from .connectivity import (SeparationReport, blocks, cyclic_3_separations,
                           full_closure, is_3_connected, is_connected,
                           lambda_, separations, vertical_3_separations)
from .builders import (delta_wye, fano, nonfano, parallel_add,
                       parallel_connection, paving, principal_extension,
                       relax, series_add, spike, spiked_fano,
                       twisted_cube_matroid, uniform, wheel, whirl, wye_delta)
from .structures import (FanRecord, FlanRecord, StructureReport,
                         detect_elongated_quad, detect_skew_whiff,
                         detect_spike_like, detect_twisted_cube_like, fans,
                         flans, quads, segments, triads, triangles)
from .minors import (DetachableResult, NLabelling, detachable_after_exchange,
                     detachable_pairs, grounded_triads, grounded_triangles,
                     has_minor, labellings, switch_labels)
from .corpus import CorpusEntry, generate_corpus
