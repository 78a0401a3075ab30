"""Exception types shared across the package."""


class InputError(ValueError):
    """Caller passed arguments that violate an operation's contract."""


class ParseError(InputError):
    """A serialized graph could not be decoded."""


class PreconditionError(InputError):
    """An operation was called on a graph outside its stated domain."""


class NotAMagError(InputError):
    """A graph failed MAG validation; the message names a witness."""


class MoveRejectedError(InputError):
    """A requested edge replacement fails its licensing predicate."""


def _shown(value: object) -> str:
    # repr(value) for a message, naming an integer too long for decimal
    # conversion by its bit length and other unprintable values by type.
    try:
        return repr(value)
    except ValueError:
        if not isinstance(value, int):
            return f"a {type(value).__name__} too large to print"
        sign = "a negative" if value < 0 else "an"
        return f"{sign} integer of {value.bit_length()} bits"
