"""Tests for the netlist container and element builders."""

import pytest

from repro.circuits.elements import (
    CurrentSource,
    IdealOpAmp,
    Resistor,
    VCVS,
    VoltageSource,
)
from repro.circuits.mna import solve_dc
from repro.circuits.netlist import GROUND_NAMES, Circuit, canonical_node
from repro.errors import CircuitError


class TestCanonicalNode:
    @pytest.mark.parametrize("alias", ["0", "gnd", "GND"])
    def test_ground_aliases(self, alias):
        assert canonical_node(alias) == "0"

    def test_regular_node(self):
        assert canonical_node("n1") == "n1"


class TestElementValidation:
    def test_resistor_requires_positive_resistance(self):
        with pytest.raises(CircuitError):
            Resistor("R1", "a", "b", 0.0)

    def test_resistor_conductance(self):
        assert Resistor("R1", "a", "b", 2.0).conductance == 0.5

    def test_empty_node_name_rejected(self):
        with pytest.raises(CircuitError):
            VoltageSource("V1", "", "0", 1.0)


class TestCircuitBuilders:
    def test_auto_names_unique(self):
        c = Circuit()
        r1 = c.resistor("a", "0", 1.0)
        r2 = c.resistor("b", "0", 1.0)
        assert r1.name != r2.name

    def test_duplicate_name_rejected(self):
        c = Circuit()
        c.resistor("a", "0", 1.0, name="R")
        with pytest.raises(CircuitError, match="duplicate"):
            c.resistor("b", "0", 1.0, name="R")

    def test_duplicate_name_via_add_rejected(self):
        c = Circuit()
        c.add(Resistor("R", "a", "0", 1.0))
        with pytest.raises(CircuitError, match="duplicate"):
            c.add(VoltageSource("R", "a", "0", 1.0))

    def test_conductor_converts(self):
        c = Circuit()
        r = c.conductor("a", "0", 0.25)
        assert r.resistance == 4.0

    def test_conductor_rejects_nonpositive(self):
        c = Circuit()
        with pytest.raises(CircuitError):
            c.conductor("a", "0", 0.0)

    def test_nodes_sorted_excluding_ground(self):
        c = Circuit()
        c.resistor("b", "gnd", 1.0)
        c.resistor("a", "b", 1.0)
        assert c.nodes() == ["a", "b"]

    def test_opamp_ideal_type(self):
        c = Circuit()
        e = c.opamp("inv", "0", "out")
        assert isinstance(e, IdealOpAmp)

    def test_opamp_finite_gain_is_vcvs(self):
        c = Circuit()
        e = c.opamp("inv", "0", "out", gain=1e5)
        assert isinstance(e, VCVS)
        assert e.gain == 1e5

    def test_len_counts_elements(self):
        c = Circuit()
        c.resistor("a", "0", 1.0)
        c.vsource("a", "0", 1.0)
        assert len(c) == 2

    def test_vcvs_nodes_collected(self):
        c = Circuit()
        c.vcvs("o", "0", "c1", "c2", 2.0)
        assert set(c.nodes()) == {"o", "c1", "c2"}


class TestFailedBuilderLeavesCircuitUntouched:
    """Regression: a builder whose element fails validation must not
    register the name or advance the auto-name counter (the old
    ``_register`` did both before constructing the element, so a failed
    call poisoned the name for any retry)."""

    FAILING_THEN_VALID = {
        "resistor": (
            lambda c, name: c.resistor("a", "0", 0.0, name=name),
            lambda c, name: c.resistor("a", "0", 1.0, name=name),
        ),
        "capacitor": (
            lambda c, name: c.capacitor("a", "0", 0.0, name=name),
            lambda c, name: c.capacitor("a", "0", 1e-12, name=name),
        ),
        "inductor": (
            lambda c, name: c.inductor("a", "0", 0.0, name=name),
            lambda c, name: c.inductor("a", "0", 1e-9, name=name),
        ),
        "conductor": (
            lambda c, name: c.conductor("a", "0", 0.0, name=name),
            lambda c, name: c.conductor("a", "0", 2.0, name=name),
        ),
        "vsource": (
            lambda c, name: c.vsource("", "0", 1.0, name=name),
            lambda c, name: c.vsource("a", "0", 1.0, name=name),
        ),
        "isource": (
            lambda c, name: c.isource("", "0", 1.0, name=name),
            lambda c, name: c.isource("a", "0", 1.0, name=name),
        ),
        "vcvs": (
            lambda c, name: c.vcvs("", "0", "x", "y", 2.0, name=name),
            lambda c, name: c.vcvs("o", "0", "x", "y", 2.0, name=name),
        ),
        "opamp_ideal": (
            lambda c, name: c.opamp("", "0", "out", name=name),
            lambda c, name: c.opamp("inv", "0", "out", name=name),
        ),
        "opamp_finite_gain": (
            lambda c, name: c.opamp("", "0", "out", gain=1e5, name=name),
            lambda c, name: c.opamp("inv", "0", "out", gain=1e5, name=name),
        ),
    }

    @pytest.mark.parametrize("kind", sorted(FAILING_THEN_VALID))
    def test_retry_with_same_name_succeeds(self, kind):
        failing, valid = self.FAILING_THEN_VALID[kind]
        c = Circuit()
        with pytest.raises(CircuitError):
            failing(c, "X1")
        assert len(c) == 0
        element = valid(c, "X1")
        assert element.name == "X1"
        assert len(c) == 1

    @pytest.mark.parametrize("kind", sorted(FAILING_THEN_VALID))
    def test_auto_name_counter_does_not_advance_on_failure(self, kind):
        failing, valid = self.FAILING_THEN_VALID[kind]
        c = Circuit()
        with pytest.raises(CircuitError):
            failing(c, None)
        first = valid(c, None)
        d = Circuit()
        twin = valid(d, None)
        assert first.name == twin.name
        assert len(c) == 1


class TestGroundAliasEquivalence:
    """Regression: elements handed to ``add()`` with ``"gnd"``/``"GND"``
    terminals must solve identically to the same circuit spelled with
    ``"0"`` (the old ``add()`` kept the alias verbatim, so MNA assembly
    treated ground as a floating extra node)."""

    @staticmethod
    def _divider(ground: str) -> Circuit:
        c = Circuit()
        c.add(VoltageSource("V1", "in", ground, 2.0))
        c.add(Resistor("R1", "in", "mid", 1.0))
        c.add(Resistor("R2", "mid", ground, 1.0))
        c.add(CurrentSource("I1", ground, "mid", 0.5))
        return c

    @pytest.mark.parametrize("alias", GROUND_NAMES)
    def test_add_aliases_solve_like_zero(self, alias):
        reference = solve_dc(self._divider("0"))
        aliased = solve_dc(self._divider(alias))
        for node in ("in", "mid"):
            assert aliased.voltage(node) == reference.voltage(node)
        assert aliased.current("V1") == reference.current("V1")

    @pytest.mark.parametrize("alias", ("gnd", "GND"))
    def test_add_canonicalizes_vcvs_and_opamp(self, alias):
        c = Circuit()
        c.add(VCVS("E1", "o", alias, "x", alias, 2.0))
        c.add(IdealOpAmp("U1", "inv", alias, "out"))
        ground_nodes = {alias} & set(c.nodes())
        assert not ground_nodes
        elements = {e.name: e for e in c.elements}
        assert elements["E1"].out_minus == "0"
        assert elements["E1"].ctrl_minus == "0"
        assert elements["U1"].noninverting == "0"
