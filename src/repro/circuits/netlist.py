"""Netlist container.

:class:`Circuit` accumulates elements with unique names and exposes
convenience builders (``resistor``, ``vsource``, ...). Node names are
arbitrary strings; ``"0"`` (also accepted: ``"gnd"``) is ground.
"""

from __future__ import annotations

from dataclasses import replace

from repro.circuits.elements import (
    Capacitor,
    CurrentSource,
    Element,
    IdealOpAmp,
    Inductor,
    Resistor,
    VCVS,
    VoltageSource,
)
from repro.errors import CircuitError

GROUND_NAMES = ("0", "gnd", "GND")

_GROUND_SET = frozenset(GROUND_NAMES)


def canonical_node(node: str) -> str:
    """Map all accepted ground spellings to ``"0"``."""
    return "0" if node in GROUND_NAMES else node


#: Terminal-node field names per element type, used to canonicalize
#: pre-built elements passed to :meth:`Circuit.add`.
_NODE_FIELDS: dict[type, tuple[str, ...]] = {
    Resistor: ("a", "b"),
    Capacitor: ("a", "b"),
    Inductor: ("a", "b"),
    VoltageSource: ("plus", "minus"),
    CurrentSource: ("plus", "minus"),
    VCVS: ("out_plus", "out_minus", "ctrl_plus", "ctrl_minus"),
    IdealOpAmp: ("inverting", "noninverting", "output"),
}


def _canonicalize_element(element: Element) -> Element:
    """Return ``element`` with every ground-alias terminal mapped to ``"0"``.

    Elements whose terminals are already canonical are returned as-is
    (no copy); only an element naming ``"gnd"``/``"GND"`` is rebuilt.
    """
    fields = _NODE_FIELDS.get(type(element))
    if fields is None:  # pragma: no cover - union is closed
        raise CircuitError(f"unknown element type {type(element).__name__}")
    changes = {
        field: "0"
        for field in fields
        if getattr(element, field) in _GROUND_SET and getattr(element, field) != "0"
    }
    return replace(element, **changes) if changes else element


class Circuit:
    """A mutable collection of circuit elements with unique names."""

    def __init__(self, title: str = ""):
        self.title = title
        self._elements: list[Element] = []
        self._names: set[str] = set()
        self._counter = 0

    # ------------------------------------------------------------------
    # element accessors
    # ------------------------------------------------------------------
    @property
    def elements(self) -> tuple[Element, ...]:
        """All elements added so far, in insertion order."""
        return tuple(self._elements)

    def __len__(self) -> int:
        return len(self._elements)

    def nodes(self) -> list[str]:
        """Sorted list of all node names (excluding ground)."""
        found: set[str] = set()
        for element in self._elements:
            if isinstance(element, (Resistor, Capacitor, Inductor)):
                found.update((element.a, element.b))
            elif isinstance(element, (VoltageSource, CurrentSource)):
                found.update((element.plus, element.minus))
            elif isinstance(element, VCVS):
                found.update(
                    (element.out_plus, element.out_minus, element.ctrl_plus, element.ctrl_minus)
                )
            elif isinstance(element, IdealOpAmp):
                found.update((element.inverting, element.noninverting, element.output))
        found.discard("0")
        return sorted(found)

    # ------------------------------------------------------------------
    # element builders
    # ------------------------------------------------------------------
    def _reserve(self, name: str | None, prefix: str) -> tuple[str, bool]:
        """Pick (but do not register) the name a new element will get.

        Registration is two-phase — reserve, construct, :meth:`_commit` —
        so a builder whose element fails validation leaves the circuit
        untouched: the name stays available for a retry and the auto-name
        counter does not advance.
        """
        if name is None:
            candidate = f"{prefix}{self._counter + 1}"
            if candidate in self._names:
                raise CircuitError(f"duplicate element name {candidate!r}")
            return candidate, True
        if name in self._names:
            raise CircuitError(f"duplicate element name {name!r}")
        return name, False

    def _commit(self, element: Element, auto: bool) -> Element:
        """Register a successfully constructed element."""
        self._names.add(element.name)
        if auto:
            self._counter += 1
        self._elements.append(element)
        return element

    def add(self, element: Element) -> Element:
        """Add a pre-built element (its name must be unique).

        Terminal nodes are canonicalized (``"gnd"``/``"GND"`` map to
        ``"0"``) exactly as the builders do, so a pre-built element can
        never smuggle an un-mapped ground spelling past MNA assembly —
        which would silently treat ground as a floating node. Returns the
        (possibly rebuilt) canonical element.
        """
        element = _canonicalize_element(element)
        if element.name in self._names:
            raise CircuitError(f"duplicate element name {element.name!r}")
        self._names.add(element.name)
        self._elements.append(element)
        return element

    def resistor(self, a: str, b: str, resistance: float, name: str | None = None) -> Resistor:
        """Add a resistor between nodes ``a`` and ``b``."""
        name, auto = self._reserve(name, "R")
        return self._commit(
            Resistor(name, canonical_node(a), canonical_node(b), resistance), auto
        )

    def capacitor(self, a: str, b: str, capacitance: float, name: str | None = None) -> Capacitor:
        """Add a capacitor between nodes ``a`` and ``b``."""
        name, auto = self._reserve(name, "C")
        return self._commit(
            Capacitor(name, canonical_node(a), canonical_node(b), capacitance), auto
        )

    def inductor(self, a: str, b: str, inductance: float, name: str | None = None) -> Inductor:
        """Add an inductor between nodes ``a`` and ``b``."""
        name, auto = self._reserve(name, "L")
        return self._commit(
            Inductor(name, canonical_node(a), canonical_node(b), inductance), auto
        )

    def conductor(self, a: str, b: str, conductance: float, name: str | None = None) -> Resistor:
        """Add a resistor specified by conductance (siemens)."""
        if not conductance > 0.0:
            raise CircuitError(f"conductance must be > 0, got {conductance}")
        return self.resistor(a, b, 1.0 / conductance, name)

    def vsource(self, plus: str, minus: str, value: float, name: str | None = None) -> VoltageSource:
        """Add an independent voltage source."""
        name, auto = self._reserve(name, "V")
        return self._commit(
            VoltageSource(name, canonical_node(plus), canonical_node(minus), float(value)),
            auto,
        )

    def isource(self, plus: str, minus: str, value: float, name: str | None = None) -> CurrentSource:
        """Add an independent current source (pushes current minus -> plus externally)."""
        name, auto = self._reserve(name, "I")
        return self._commit(
            CurrentSource(name, canonical_node(plus), canonical_node(minus), float(value)),
            auto,
        )

    def vcvs(
        self,
        out_plus: str,
        out_minus: str,
        ctrl_plus: str,
        ctrl_minus: str,
        gain: float,
        name: str | None = None,
    ) -> VCVS:
        """Add a voltage-controlled voltage source."""
        name, auto = self._reserve(name, "E")
        return self._commit(
            VCVS(
                name,
                canonical_node(out_plus),
                canonical_node(out_minus),
                canonical_node(ctrl_plus),
                canonical_node(ctrl_minus),
                gain if isinstance(gain, complex) else float(gain),
            ),
            auto,
        )

    def opamp(
        self,
        inverting: str,
        noninverting: str,
        output: str,
        gain: float | None = None,
        name: str | None = None,
    ) -> Element:
        """Add an op-amp.

        ``gain=None`` adds an ideal (nullor) op-amp; a finite ``gain`` adds
        the equivalent VCVS ``v(out) = gain * (v(noninv) - v(inv))``.
        """
        if gain is None:
            name, auto = self._reserve(name, "U")
            return self._commit(
                IdealOpAmp(
                    name,
                    canonical_node(inverting),
                    canonical_node(noninverting),
                    canonical_node(output),
                ),
                auto,
            )
        return self.vcvs(output, "0", noninverting, inverting, gain, name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Circuit({self.title!r}, {len(self._elements)} elements, {len(self.nodes())} nodes)"
