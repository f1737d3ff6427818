"""Exception types shared across the package."""

import numbers


class PreconditionError(ValueError):
    """An operation was called with inputs that violate its stated precondition."""


class FieldError(ValueError):
    """A value outside the domain of its field; field names the field."""

    def __init__(self, field: str, requirement: str, value):
        super().__init__(field, requirement, value)
        self.field, self.requirement, self.value = field, requirement, value

    def worded(self, name: str) -> str:
        """The message with the field called name, e.g. by the flag that set it."""
        return f"{name} must be {self.requirement}, got {self.value!r}"

    def __str__(self) -> str:
        return self.worded(self.field)


def require_int(field: str, value, lo: int, hi: float, span: str) -> None:
    """Raise FieldError unless value is an integer (numpy integers included, bools not) in [lo, hi].

    span words the range for the message, e.g. "in [1, 512]".
    """
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise FieldError(field, "an integer", value)
    if not lo <= value <= hi:
        raise FieldError(field, span, value)
