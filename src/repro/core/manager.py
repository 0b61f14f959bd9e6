"""The reconfiguration manager (paper Section II).

"The subsystem that performs the reconfiguration is called the
reconfiguration manager and is generally implemented in software."

For a parameterised configuration the manager's job is: on a mode
switch, evaluate every Boolean function of the mode bits and write the
resulting values into the configuration memory.  The paper assumes the
functions are evaluated off-line; this module implements both views:

* :class:`ParameterizedConfiguration` — the artefact the DCS flow
  produces: static bits plus, for every parameterised bit, its value
  per mode (equivalently, its Boolean function of the mode bits —
  rendered on demand via Quine-McCluskey);
* :class:`ReconfigurationManager` — replays mode switches against a
  simulated configuration memory, returning exactly which bits were
  rewritten, so the bit-count metrics of the paper can be audited
  against an executable model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set

from repro.core.modes import ModeEncoding
from repro.route.router import RoutingResult, varying_bits


@dataclass
class ParameterizedConfiguration:
    """A parameterised configuration of the routing fabric.

    ``static_on`` are bits that are one in every mode; all other
    non-parameterised bits are statically zero.  ``parameterized``
    maps a bit id to the frozenset of modes in which it is one.
    """

    n_modes: int
    n_bits_total: int
    static_on: FrozenSet[int]
    parameterized: Dict[int, FrozenSet[int]]

    @classmethod
    def from_routing(
        cls, result: RoutingResult, n_bits_total: int
    ) -> "ParameterizedConfiguration":
        """Derive the parameterised configuration from a TRoute result."""
        per_mode = [
            result.bits_on(mode) for mode in range(result.n_modes)
        ]
        parameterized = {
            bit: frozenset(
                mode
                for mode in range(result.n_modes)
                if bit in per_mode[mode]
            )
            for bit in varying_bits(per_mode)
        }
        return cls(
            n_modes=result.n_modes,
            n_bits_total=n_bits_total,
            static_on=frozenset(
                set.intersection(*per_mode) if per_mode else ()
            ),
            parameterized=parameterized,
        )

    # -- queries ----------------------------------------------------------

    def n_parameterized(self) -> int:
        return len(self.parameterized)

    def bit_value(self, bit: int, mode: int) -> bool:
        """Value of *bit* in *mode*."""
        if bit in self.static_on:
            return True
        modes = self.parameterized.get(bit)
        if modes is None:
            return False
        return mode in modes

    def bits_on(self, mode: int) -> Set[int]:
        """Full on-set of *mode*'s configuration."""
        on = set(self.static_on)
        for bit, modes in self.parameterized.items():
            if mode in modes:
                on.add(bit)
        return on

    def bit_expression(self, bit: int,
                       encoding: Optional[ModeEncoding] = None) -> str:
        """Boolean function of the mode bits for *bit* (e.g. ``m0``)."""
        encoding = encoding or ModeEncoding(self.n_modes)
        if bit in self.static_on:
            return "1"
        modes = self.parameterized.get(bit)
        if not modes:
            return "0"
        return encoding.expression(modes)


@dataclass
class SwitchRecord:
    """One executed mode switch."""

    from_mode: Optional[int]
    to_mode: int
    bits_written: int


class ReconfigurationManager:
    """Software model of the runtime reconfiguration manager.

    Two write policies mirror the paper:

    * ``policy="evaluate"`` — the DCS manager: on a switch it writes
      every parameterised bit's value for the new mode (the paper
      counts all parameterised bits, conservatively assuming each is
      rewritten);
    * ``policy="minimal"`` — an idealised manager that compares old
      and new values and writes only bits that actually change
      (a lower bound; useful for the ablation the paper hints at when
      discussing LUT-bit diffing).
    """

    def __init__(
        self,
        configuration: ParameterizedConfiguration,
        policy: str = "evaluate",
    ) -> None:
        if policy not in ("evaluate", "minimal"):
            raise ValueError("policy must be 'evaluate' or 'minimal'")
        self.configuration = configuration
        self.policy = policy
        self.current_mode: Optional[int] = None
        # Simulated configuration memory: set of on-bits.
        self.memory: Set[int] = set()
        self.history: List[SwitchRecord] = []

    def load_initial(self, mode: int) -> SwitchRecord:
        """Full configuration load (power-up), then enter *mode*."""
        self._check_mode(mode)
        self.memory = self.configuration.bits_on(mode)
        record = SwitchRecord(
            None, mode, self.configuration.n_bits_total
        )
        self.current_mode = mode
        self.history.append(record)
        return record

    def switch(self, mode: int) -> SwitchRecord:
        """Switch to *mode*, rewriting parameterised bits only."""
        self._check_mode(mode)
        if self.current_mode is None:
            return self.load_initial(mode)
        written = 0
        for bit, modes in self.configuration.parameterized.items():
            new_value = mode in modes
            if self.policy == "minimal":
                old_value = bit in self.memory
                if old_value == new_value:
                    continue
            written += 1
            if new_value:
                self.memory.add(bit)
            else:
                self.memory.discard(bit)
        record = SwitchRecord(self.current_mode, mode, written)
        self.current_mode = mode
        self.history.append(record)
        return record

    def verify(self) -> None:
        """Memory must equal the current mode's exact configuration."""
        if self.current_mode is None:
            raise RuntimeError("no mode loaded")
        expected = self.configuration.bits_on(self.current_mode)
        if self.memory != expected:
            missing = expected - self.memory
            extra = self.memory - expected
            raise AssertionError(
                f"configuration memory corrupt: {len(missing)} "
                f"missing, {len(extra)} extra bits"
            )

    def _check_mode(self, mode: int) -> None:
        if not 0 <= mode < self.configuration.n_modes:
            raise ValueError(f"mode {mode} out of range")
