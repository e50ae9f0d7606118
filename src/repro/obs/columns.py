"""Append-only typed columns: the storage under the recorder's tables.

A traced run records tens of thousands of spans, edges and telemetry
samples. Kept as one Python object (or tuple) each, they cost about a
kilobyte per span of host memory; kept as parallel typed arrays, they
cost tens of bytes. A :class:`Column` is one such array that never
changes a value: it holds floats in ``array('d')`` or ints in
``array('q')`` only while every value appended reads back as an equal
object of the same type (``-0.0``, NaN payloads and infinities keep
their bits), and becomes a plain list, for good, at the first value
that would not — an int among floats, a bool, an int beyond 64 bits,
``None``, anything else.
"""

from __future__ import annotations

from array import array
from typing import Any, Iterator, Optional

#: the Python type each array typecode gives back exactly
_TYPECODES = {float: "d", int: "q"}


class _ListMode:
    """Marks a column that holds a plain list (no value's type is this)."""


class Column:
    """One column of a table: values in append order, read back unchanged.

    ``typecode`` is ``"d"`` (floats), ``"q"`` (ints) or ``None`` to let
    the first value pick. ``data`` is the storage — an ``array`` or a
    ``list`` — and is what views scanning a whole column read directly.
    Hot paths may also write a ``float`` to a ``"d"`` column's ``data``
    directly: every storage the column can have keeps it as it is.
    """

    __slots__ = ("data", "_type")

    def __init__(self, typecode: Optional[str] = None):
        if typecode is None:
            self.data: Any = []
            self._type: Any = None
        else:
            self.data = array(typecode)
            self._type = float if typecode == "d" else int

    def append(self, value: Any) -> None:
        if type(value) is self._type:
            try:
                self.data.append(value)
                return
            except OverflowError:
                pass
        self._widen(value)
        self.data.append(value)

    def __setitem__(self, index: int, value: Any) -> None:
        if type(value) is not self._type:
            self._widen(value)
        try:
            self.data[index] = value
        except OverflowError:
            self._widen(None)
            self.data[index] = value

    def _widen(self, value: Any) -> None:
        """Make room for ``value``: type an empty untyped column after it,
        else turn the column into a list."""
        if self._type is None and not self.data:
            typecode = _TYPECODES.get(type(value))
            if typecode is not None:
                try:
                    array(typecode, [value])
                except OverflowError:
                    pass
                else:
                    self.data = array(typecode)
                    self._type = type(value)
                    return
        if type(self.data) is not list:
            self.data = self.data.tolist()
        self._type = _ListMode

    def pad(self, length: int) -> None:
        """Extend with zeros to ``length`` (slots nobody reads yet)."""
        missing = length - len(self.data)
        if missing > 0:
            if type(self.data) is list:
                self.data.extend([0.0] * missing)
            else:
                self.data.frombytes(bytes(missing * self.data.itemsize))

    def __getitem__(self, index: int) -> Any:
        return self.data[index]

    def __len__(self) -> int:
        return len(self.data)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.data)


#: the int an id column stores for ``None``
NO_ID = -(2**63)


class IdColumn(Column):
    """An int column that also holds ``None`` (stored as :data:`NO_ID`)."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__("q")

    def append(self, value: Any) -> None:
        if self._type is int:
            if value is None:
                self.data.append(NO_ID)
                return
            if type(value) is int and value != NO_ID:
                try:
                    self.data.append(value)
                    return
                except OverflowError:
                    pass
            self._widen(value)
        self.data.append(value)

    def __setitem__(self, index: int, value: Any) -> None:
        self._widen(value)
        self.data[index] = value

    def _widen(self, value: Any) -> None:
        if type(self.data) is not list:
            self.data = [None if v == NO_ID else v for v in self.data]
        self._type = _ListMode

    def __getitem__(self, index: int) -> Any:
        value = self.data[index]
        return None if value == NO_ID and self._type is int else value

    def __iter__(self) -> Iterator[Any]:
        if self._type is int:
            return (None if v == NO_ID else v for v in self.data)
        return iter(self.data)
