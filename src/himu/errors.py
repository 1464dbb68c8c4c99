"""Exception hierarchy for the himu engine.

Every engine error is a ``HimuError``. Tree ingestion errors carry a
``path`` attribute pointing at the offending node in the source document
(JSON-path style, e.g. ``$.children[1]``) so CLI diagnostics can name the
exact location.
"""


class HimuError(Exception):
    """Base class for all engine errors."""


# --- logic-tree ingestion ---------------------------------------------------

class TreeError(HimuError):
    """Base class for tree parsing/validation failures."""

    def __init__(self, message, path="$"):
        super().__init__(f"{path}: {message}")
        self.path = path


class TreeSyntaxError(TreeError):
    """The document is not valid JSON."""


class SchemaError(TreeError):
    """Structurally invalid node: unknown op or expert, missing fields,
    mixed leaf/internal fields, unexpected extra fields, or a size limit
    exceeded."""


class EmptyQueryError(SchemaError):
    """Leaf query text is empty after trimming whitespace."""


class ArityError(TreeError):
    """Operator node has the wrong number of children."""


class InactiveExpertError(TreeError):
    """Leaf references an expert that is not in the configured active set."""


# --- signal processing ------------------------------------------------------

class SignalError(HimuError):
    pass


class EmptyInputError(SignalError):
    pass


class LengthMismatchError(SignalError):
    pass


class RowShapeError(SignalError):
    """Rows that do not form a 2-D (rows x frames) group."""


class MissingBandwidthError(SignalError):
    """No smoothing bandwidth configured for the requested expert."""


# --- expert providers and bundles -------------------------------------------

class ExpertError(HimuError):
    pass


class MissingRowError(ExpertError):
    """A file-backed score table has no row for the requested query."""


class MissingArtifactError(ExpertError):
    """The bundle lacks a section (transcript, ocr, table) required by a
    leaf's expert."""


class BundleFormatError(ExpertError):
    """Malformed or unsupported bundle / detection-source document."""


class InconsistentLengthError(BundleFormatError):
    """A bundle section disagrees with the header frame count."""


class LeafEvaluationError(ExpertError):
    """Wraps a per-leaf scoring failure with the leaf's identity."""

    def __init__(self, leaf_id, expert, query, cause):
        super().__init__(
            f"leaf {leaf_id} ({expert}: {query!r}): {cause}"
        )
        self.leaf_id = leaf_id
        self.cause = cause


# --- benchmark ----------------------------------------------------------------

class InvalidScriptError(HimuError):
    """Event script failed validation."""


class BenchmarkError(HimuError):
    """Wraps a pipeline failure with the script it occurred on."""

    def __init__(self, script_id, cause):
        super().__init__(f"script {script_id!r}: {cause}")
        self.script_id = script_id
        self.cause = cause

