"""Exception types shared across the package."""


class FormringError(Exception):
    """Base class for all package errors."""


class AmbientMismatchError(FormringError):
    """Operands live in different ambient rings."""


class NotHomogeneousError(FormringError):
    """A homogeneous polynomial or ideal was required."""


class ZeroRingError(FormringError):
    """The quotient ring is zero (the ideal contains 1)."""


class NotInIrrelevantError(FormringError):
    """The ideal must be contained in the irrelevant maximal ideal."""


class SaturationLimitError(FormringError):
    """A torsion order or an annihilating exponent of M exceeds the cap."""

    def __init__(self, cap: int):
        super().__init__(f"a torsion order or annihilating exponent exceeds "
                         f"the cap of {cap}")
        self.cap = cap


class RangeLimitError(FormringError):
    """An `r=LO..HI` range holds more values than the cap allows."""

    def __init__(self, lo: int, hi: int, cap: int):
        super().__init__(f"r={lo}..{hi} has {hi - lo + 1} values, more than "
                         f"the cap of {cap}")


class SizeLimitError(FormringError):
    """A dense Koszul matrix would hold more cells, or one degree more
    monomials, than the cap allows."""


class ParseError(FormringError):
    """Malformed session or polynomial text."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col
