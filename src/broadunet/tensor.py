"""The shape error every broadunet module raises.

Tensors are plain numpy arrays in (T, H, W, C) axis order, row-major with
the channel axis fastest.
"""


class ShapeError(ValueError):
    """A shape, extent or rank is invalid for the requested operation."""
