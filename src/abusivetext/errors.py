"""Exception types shared across the toolkit."""


class AbusiveTextError(Exception):
    """Base class for all toolkit errors."""


class UnknownLabel(AbusiveTextError):
    """A label string is not one of the two known classes."""

    def __init__(self, value: str):
        self.value = value
        super().__init__(f"unknown label: {value!r}")


class MalformedRow(AbusiveTextError):
    """A dataset row could not be parsed. Carries the 1-based file row number."""

    def __init__(self, row: int, reason: str):
        self.row = row
        self.reason = reason
        super().__init__(f"row {row}: {reason}")


class EncodingError(AbusiveTextError):
    """Input bytes are not valid UTF-8."""


class EmptyCorpus(AbusiveTextError):
    """A fit/train operation received no documents."""


class EmptyData(AbusiveTextError):
    """A training operation received no examples."""


class EmptyInput(AbusiveTextError):
    """An evaluation operation received empty label lists."""


class LengthMismatch(AbusiveTextError):
    """Gold and predicted label lists differ in length."""


class DimensionMismatch(AbusiveTextError):
    """A vector or parameter tensor has the wrong dimension."""


class TrainingDiverged(AbusiveTextError):
    """Training produced a non-finite loss."""


class DevRequiredError(AbusiveTextError):
    """The encoder arm was asked to train without a dev split."""


class BundleVersionError(AbusiveTextError):
    """A model bundle declares an unsupported format version."""


class BundleInconsistentError(AbusiveTextError):
    """A model bundle's payload fails internal consistency checks."""


class IdMismatchError(AbusiveTextError):
    """Gold and prediction files do not share the same id set."""

    def __init__(self, missing_in_pred: list[str], missing_in_gold: list[str]):
        self.missing_in_pred = missing_in_pred
        self.missing_in_gold = missing_in_gold
        shown = (missing_in_pred + missing_in_gold)[:10]
        super().__init__("unmatched ids: " + ", ".join(shown))
