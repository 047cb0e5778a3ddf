"""Dihedral branched-cover obstructions from Seifert matrices.

Everything runs in exact arithmetic. From a knot's Seifert matrix the
package computes the homology and linking form of the double branched
cover, enumerates the dihedral quotients of the knot group, decides
which of them extend over surfaces in the 4-ball, and evaluates the
xi signature invariant with its ribbon obstruction.
"""

from types import ModuleType as _Module

# The one definition of the version. It stands above the submodule imports
# so that report can take Report.version from it; pyproject.toml reads it.
__version__ = "0.1.0"

from .errors import (
    CriterionInapplicableError, DivisorSearchError, EnumerationCapError, EvenModulusError,
    MatrixParseError, NonSquareFreeError, SeifertMatrixError,
    SignatureIndeterminateError, StabilizationError,
)
from .exact import IntMatrix, ResidueQZ, SNFResult, det, four_squares, snf
from .seifert import (
    SeifertMatrix, ZeroFramedStabilization, connected_sum, knot_determinant,
    stabilize_zero_framed, symmetrize, twist_knot,
)
from .cover import (
    LinkingForm, TorsionGroup, double_cover_homology, evaluate_linking, linking_form,
)
from .obstruction import (
    DEFAULT_ENUM_CAP, Character, CharKnotClass, ExtensionVerdict, QuotientClass,
    char_knot_to_character, characteristic_knot_classes, cyclic_criterion,
    quotient_classes, surjective_characters, verdict,
)
from .signatures import (
    RIBBON_CONSISTENT, RIBBON_OBSTRUCTED, SigmaWBound, XiValue, ribbon_test,
    tristram_levine, twist_xi3, xi_n,
)
from .report import (
    KnotRecord, Report, RowError, TwistRow, analyze, parse_matrix, render_matrix,
    render_report_text, render_twist_text, scan, twist_family,
)

# Every public name imported above, stated there once.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _Module))
