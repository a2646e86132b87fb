"""Bit-vector predicates over BDD variables.

Campion encodes packet and route-advertisement fields (IP addresses, prefix
lengths, ports, local preference, ...) as fixed-width unsigned integers.
:class:`BitVector` binds a field to a block of BDD variables (most
significant bit first) and builds the predicates the encoders need:

* ``eq_const`` / ``neq_const`` — equality with a constant,
* ``interval`` — membership in a closed integer interval,
* ``prefix_match`` — the high ``k`` bits equal those of a constant (used
  for IP prefix matching),
* ``eq`` — bitwise equality of two vectors (used by the monolithic
  baseline to equate the "input" and "output" copies of a field).

All constructions are linear in the bit width, producing the interval and
prefix predicates directly rather than by enumerating values.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .engine import Bdd, BddManager

__all__ = ["BitVector"]


class BitVector:
    """A fixed-width unsigned integer field laid out over BDD variables."""

    def __init__(self, manager: BddManager, name: str, variables: Sequence[Bdd]):
        if not variables:
            raise ValueError(f"bit vector {name!r} needs at least one variable")
        self.manager = manager
        self.name = name
        # variables[0] is the most significant bit.
        self.variables: List[Bdd] = list(variables)
        self.var_indices: List[int] = [v.support()[0] for v in variables]

    @classmethod
    def allocate(cls, manager: BddManager, name: str, width: int) -> "BitVector":
        """Allocate ``width`` fresh variables (MSB first) for this field."""
        if width <= 0:
            raise ValueError(f"bit vector {name!r} needs positive width, got {width}")
        return cls(manager, name, manager.new_vars(width))

    @property
    def width(self) -> int:
        """Bit width of the field."""
        return len(self.variables)

    @property
    def max_value(self) -> int:
        """Largest representable value (2^width - 1)."""
        return (1 << self.width) - 1

    def _check_value(self, value: int) -> None:
        if not 0 <= value <= self.max_value:
            raise ValueError(
                f"value {value} out of range for {self.width}-bit field {self.name!r}"
            )

    # -- constant predicates -------------------------------------------------
    def bit(self, position: int) -> Bdd:
        """The literal for bit ``position`` (0 = most significant)."""
        return self.variables[position]

    def eq_const(self, value: int) -> Bdd:
        """Predicate: the field equals ``value``."""
        self._check_value(value)
        return self.manager.cube(
            {
                self.var_indices[position]: bool(
                    (value >> (self.width - 1 - position)) & 1
                )
                for position in range(self.width)
            }
        )

    def neq_const(self, value: int) -> Bdd:
        """Predicate: the field differs from ``value``."""
        return ~self.eq_const(value)

    def prefix_match(self, value: int, bits: int) -> Bdd:
        """Predicate: the top ``bits`` bits of the field equal those of ``value``.

        ``bits == 0`` matches everything.  This is the primitive behind IP
        prefix matching: ``prefix_match(ip_of("10.9.0.0"), 16)``.
        """
        if not 0 <= bits <= self.width:
            raise ValueError(
                f"prefix width {bits} out of range for {self.width}-bit field"
            )
        self._check_value(value)
        return self.manager.cube(
            {
                self.var_indices[position]: bool(
                    (value >> (self.width - 1 - position)) & 1
                )
                for position in range(bits)
            }
        )

    # -- interval predicates ---------------------------------------------------
    def le_const(self, bound: int) -> Bdd:
        """Predicate: field <= bound."""
        self._check_value(bound)
        return self.manager.threshold(self.var_indices, bound, at_least=False)

    def ge_const(self, bound: int) -> Bdd:
        """Predicate: field >= bound."""
        self._check_value(bound)
        return self.manager.threshold(self.var_indices, bound, at_least=True)

    def interval(self, low: int, high: int) -> Bdd:
        """Predicate: ``low <= field <= high`` (inclusive on both ends)."""
        if low > high:
            raise ValueError(f"empty interval [{low}, {high}] for field {self.name!r}")
        return self.ge_const(low) & self.le_const(high)

    # -- vector/vector predicates ------------------------------------------------
    def eq(self, other: "BitVector") -> Bdd:
        """Predicate: this field equals ``other`` bit for bit."""
        if other.width != self.width:
            raise ValueError(
                f"width mismatch: {self.name!r} is {self.width} bits, "
                f"{other.name!r} is {other.width}"
            )
        acc = self.manager.true
        for position in range(self.width - 1, -1, -1):
            a, b = self.variables[position], other.variables[position]
            acc = ~(a ^ b) & acc
        return acc

    # -- model extraction ------------------------------------------------------
    def value_of(self, model: Dict[int, bool], default_bit: bool = False) -> int:
        """Read this field's integer value out of a (partial) model.

        Variables absent from the model (don't-cares) take ``default_bit``.
        """
        value = 0
        for position in range(self.width):
            bit = model.get(self.var_indices[position], default_bit)
            value = (value << 1) | int(bit)
        return value

    def free_bits(self, model: Dict[int, bool]) -> List[int]:
        """Positions (0 = MSB) whose variables are unassigned in ``model``."""
        return [
            position
            for position in range(self.width)
            if self.var_indices[position] not in model
        ]
