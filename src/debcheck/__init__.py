"""Installability checking and QA for Debian-style package repositories."""

from .contents import (
    CandidateStatus,
    ConflictCandidate,
    ContentsIndex,
    classify_pairs,
    parse_contents,
    shared_file_pairs,
)
from .expand import (
    DepClause,
    PackageId,
    Repository,
    RepositoryError,
    build_repository,
    expand,
    expand_version_constraints,
    expand_virtual_packages,
)
from .model import (
    HealthReport,
    Installation,
    check_health,
    generate_rn,
    is_trimmed,
)
from .solver import (
    CheckResult,
    ClauseSet,
    Explanation,
    RepositoryChecker,
    brute_force_check,
    check_all,
    check_coinstallable,
    check_installable,
    encode,
)
from .stanza import (
    ConstrainedRef,
    DependencyExpression,
    DependencyParseError,
    PackageStanza,
    ParseResult,
    parse_dependency_field,
    parse_packages,
)
from .version import VersionOrdering, compare_versions
from .weather import Summary, WeatherCategory, summarize, weather_category

__version__ = "0.1.0"

__all__ = [
    "CandidateStatus",
    "CheckResult",
    "ClauseSet",
    "ConflictCandidate",
    "ConstrainedRef",
    "ContentsIndex",
    "DepClause",
    "DependencyExpression",
    "DependencyParseError",
    "Explanation",
    "HealthReport",
    "Installation",
    "PackageId",
    "PackageStanza",
    "ParseResult",
    "Repository",
    "RepositoryChecker",
    "RepositoryError",
    "Summary",
    "VersionOrdering",
    "WeatherCategory",
    "brute_force_check",
    "build_repository",
    "check_all",
    "check_coinstallable",
    "check_health",
    "check_installable",
    "classify_pairs",
    "compare_versions",
    "encode",
    "expand",
    "expand_version_constraints",
    "expand_virtual_packages",
    "generate_rn",
    "is_trimmed",
    "parse_contents",
    "parse_dependency_field",
    "parse_packages",
    "shared_file_pairs",
    "summarize",
    "weather_category",
]
