"""Software implementation of Draco (Section V-C).

A Linux-kernel-component model: at the syscall entry point, Draco reads
the SID and argument values, consults the per-process SPT and VAT, and
only falls back to executing the Seccomp filter on a miss — after which
the VAT is updated so the validation is never repeated.

Correctness rests on Seccomp profiles being *stateless* (Section V):
the filter's output depends only on the (SID, argument set) input, so a
cached positive validation remains valid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.common import ledger
from repro.core.spt import SoftwareSPT, SptEntry
from repro.core.vat import VAT
from repro.cpu.params import DEFAULT_SW_COSTS, SoftwareCostParams
from repro.seccomp.engine import SeccompKernelModule
from repro.seccomp.profile import SeccompProfile
from repro.syscalls.events import SyscallEvent
from repro.syscalls.table import LINUX_X86_64, SyscallTable


def bitmask_for_arg_indices(indices: Tuple[int, ...]) -> int:
    """Argument Bitmask with all 8 bytes of each listed argument set."""
    mask = 0
    for index in indices:
        if not 0 <= index < 6:
            raise ValueError(f"argument index out of range: {index}")
        mask |= 0xFF << (index * 8)
    return mask


@dataclass
class ProcessTables:
    """The per-process Draco state the OS kernel maintains."""

    spt: SoftwareSPT
    vat: VAT
    profile: SeccompProfile


def build_process_tables(
    profile: SeccompProfile, table: SyscallTable = LINUX_X86_64
) -> ProcessTables:
    """Populate the SPT and size the VAT from a Seccomp profile.

    Section VII-A: "The OS kernel is responsible for filling the VAT of
    each process ... The OS sizes each table based on the number of
    argument sets used by [the] corresponding system call (e.g., based
    on the given Seccomp profile)."
    """
    spt = SoftwareSPT()
    vat = VAT()
    for rule in profile.rules:
        sdef = table.by_sid(rule.sid)
        if rule.checks_args and sdef.checkable_args:
            bitmask = bitmask_for_arg_indices(sdef.checkable_args)
            vat_table = vat.ensure_table(rule.sid, estimated_arg_sets=len(rule.arg_rules))
            spt.set_entry(
                SptEntry(
                    sid=rule.sid,
                    valid=True,
                    base=vat_table.base_address,
                    arg_bitmask=bitmask,
                )
            )
        else:
            spt.set_entry(SptEntry(sid=rule.sid, valid=True, base=0, arg_bitmask=0))
    return ProcessTables(spt=spt, vat=vat, profile=profile)


@dataclass(frozen=True)
class CheckOutcome:
    """Result of checking one syscall under a Draco regime."""

    allowed: bool
    cycles: float
    path: str  # "spt_only" | "vat_hit" | "filter_run" | "denied"
    #: Full seccomp return value when a denial's disposition matters
    #: (SECCOMP_RET_ERRNO returns -1 to the caller; KILL terminates).
    #: None means "no filter result to report" (allowed fast paths).
    action: Optional[int] = None
    #: Canonical ledger key (``repro.common.ledger.FLOW_KEYS``); empty
    #: for outcomes produced before the accounting layer existed, in
    #: which case consumers fall back to ``path``.
    flow: str = ""

    def __post_init__(self) -> None:
        # Outcomes key the simulator's per-event grouping dict; the
        # fields are frozen, so hash once at construction.
        object.__setattr__(
            self,
            "_hash",
            hash((self.allowed, self.cycles, self.path, self.action, self.flow)),
        )

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object):
        if self is other:
            return True
        if other.__class__ is CheckOutcome:
            return (
                self._hash == other._hash
                and self.cycles == other.cycles
                and self.path == other.path
                and self.flow == other.flow
                and self.allowed == other.allowed
                and self.action == other.action
            )
        return NotImplemented


def _merge_segment(
    segments: List[Tuple[CheckOutcome, int]], outcome: CheckOutcome, count: int
) -> None:
    """Append (outcome, count), coalescing with an equal-valued tail."""
    if segments:
        tail_outcome, tail_count = segments[-1]
        if tail_outcome is outcome or tail_outcome == outcome:
            segments[-1] = (tail_outcome, tail_count + count)
            return
    segments.append((outcome, count))


@dataclass
class SoftwareDracoStats:
    spt_only: int = 0
    vat_hits: int = 0
    filter_runs: int = 0
    denials: int = 0
    spt_only_cycles: float = 0.0
    vat_hit_cycles: float = 0.0
    filter_run_cycles: float = 0.0
    denial_cycles: float = 0.0

    @property
    def total(self) -> int:
        return self.spt_only + self.vat_hits + self.filter_runs + self.denials

    @property
    def vat_hit_rate(self) -> float:
        checked = self.vat_hits + self.filter_runs
        return self.vat_hits / checked if checked else 0.0

    def ledger(self) -> ledger.FlowLedger:
        """The stats as a flow ledger, keyed by the canonical taxonomy."""
        snapshot = ledger.FlowLedger()
        for key, count, cycles in (
            (ledger.FLOW_SW_SPT_ONLY, self.spt_only, self.spt_only_cycles),
            (ledger.FLOW_SW_VAT_HIT, self.vat_hits, self.vat_hit_cycles),
            (ledger.FLOW_SW_FILTER, self.filter_runs, self.filter_run_cycles),
            (ledger.FLOW_SW_DENIED, self.denials, self.denial_cycles),
        ):
            if count:
                snapshot.counts[key] = count
                snapshot.cycles[key] = cycles
        return snapshot


class SoftwareDraco:
    """The software Draco checker for one process."""

    def __init__(
        self,
        tables: ProcessTables,
        seccomp: SeccompKernelModule,
        costs: SoftwareCostParams = DEFAULT_SW_COSTS,
        use_jit: bool = True,
        bulk: bool = True,
    ) -> None:
        self.tables = tables
        self.seccomp = seccomp
        self.costs = costs
        self.use_jit = use_jit
        self.stats = SoftwareDracoStats()
        #: Steady-state memo (bulk fast path): event -> (epoch, outcome)
        #: for the two pure fast paths (VAT hit, SPT-only).  The epoch is
        #: the VAT's mutation counter — any insert (cuckoo relocations
        #: may evict) or flush lazily invalidates every entry.
        #: ``bulk=False`` keeps it off (the per-event reference).
        self._bulk = bulk
        self._steady: Dict[SyscallEvent, Tuple[int, CheckOutcome]] = {}

    #: Steady-memo size cap (safety valve, as in the hardware model).
    _STEADY_LIMIT = 1 << 14

    def attach_additional_filter(self, program) -> None:
        """Tighten the sandbox at runtime (seccomp(2) semantics: filters
        can only be added, and results only become more restrictive).

        Section VII-B assumes filters are static, which lets Draco skip
        coherence machinery; the one mutation the kernel does allow —
        attaching another filter — therefore must flush every cached
        validation, since the new filter may deny previously validated
        (SID, argument set) combinations.
        """
        self.seccomp.attach(program)
        self.tables.vat.clear_all()

    def _filter_cycles(self, instructions: int) -> float:
        per_insn = (
            self.costs.cycles_per_bpf_insn_jit
            if self.use_jit
            else self.costs.cycles_per_bpf_insn_interpreted
        )
        # The slow-entry-path surcharge applies only when the filter
        # machinery actually runs (Draco's entry hook takes the fast
        # path on cache hits).
        return (
            self.costs.seccomp_slow_path_cycles
            + self.costs.seccomp_fixed_cycles
            + instructions * per_insn
        )

    def check(self, event: SyscallEvent) -> CheckOutcome:
        """Figure 4's workflow: table check, then filter on a miss,
        with a steady-state memo in front when the bulk path is on."""
        if self._bulk:
            memo = self._steady.get(event)
            if memo is not None and memo[0] == self.tables.vat.mutations:
                self._replay_steady(memo[1], 1)
                return memo[1]
        outcome = self._check_slow(event)
        if self._bulk and (outcome.path == "vat_hit" or outcome.path == "spt_only"):
            # Neither fast path mutated the VAT, so the epoch read here
            # is the one the walk ran under.
            if len(self._steady) >= self._STEADY_LIMIT:
                self._steady.clear()
            self._steady[event] = (self.tables.vat.mutations, outcome)
        return outcome

    def _replay_steady(self, outcome: CheckOutcome, count: int) -> None:
        """Apply the side effects of *count* steady-state checks of a
        memoized outcome, bit-identical to running them one by one (the
        fast paths touch only counters; ``cycles * count`` is exact for
        ``count == 1`` and audit-tolerance-equal beyond)."""
        if outcome.path == "vat_hit":
            self.tables.vat.record_hit_bulk(count)
            self.stats.vat_hits += count
            self.stats.vat_hit_cycles += outcome.cycles * count
        else:  # "spt_only"
            self.stats.spt_only += count
            self.stats.spt_only_cycles += outcome.cycles * count

    def check_bulk(self, event: SyscallEvent, count: int) -> List[Tuple[CheckOutcome, int]]:
        """Check *event* ``count`` times, returning chronological
        ``(outcome, n)`` segments.  Once the walk reaches a steady fast
        path the remainder of the run is replayed arithmetically (a
        steady replay mutates nothing, so it stays steady)."""
        segments: List[Tuple[CheckOutcome, int]] = []
        remaining = count
        while remaining:
            memo = self._steady.get(event) if self._bulk else None
            if memo is not None and memo[0] == self.tables.vat.mutations:
                outcome = memo[1]
                self._replay_steady(outcome, remaining)
                _merge_segment(segments, outcome, remaining)
                break
            outcome = self.check(event)
            _merge_segment(segments, outcome, 1)
            remaining -= 1
        return segments

    def _check_slow(self, event: SyscallEvent) -> CheckOutcome:
        spt = self.tables.spt
        entry = spt.lookup(event.sid)

        if entry is None or not entry.valid:
            # Unknown syscall: the filter runs and (for whitelist
            # profiles) rejects it.  Nothing is cached.
            decision = self.seccomp.check(event)
            cycles = self.costs.sw_draco_spt_only_cycles + self._filter_cycles(
                decision.instructions_executed
            )
            self.stats.denials += 1
            self.stats.denial_cycles += cycles
            return CheckOutcome(
                allowed=decision.allowed,
                cycles=cycles,
                path="denied",
                action=decision.return_value,
                flow=ledger.FLOW_SW_DENIED,
            )

        if not entry.checks_arguments:
            cycles = self.costs.sw_draco_spt_only_cycles
            self.stats.spt_only += 1
            self.stats.spt_only_cycles += cycles
            return CheckOutcome(
                allowed=True, cycles=cycles, path="spt_only",
                flow=ledger.FLOW_SW_SPT_ONLY,
            )

        key = VAT.key_for(event.args, entry.arg_bitmask)
        probe = self.tables.vat.lookup(event.sid, key)
        if probe is not None and probe.hit:
            cycles = self.costs.sw_draco_hit_cycles
            self.stats.vat_hits += 1
            self.stats.vat_hit_cycles += cycles
            return CheckOutcome(
                allowed=True, cycles=cycles, path="vat_hit",
                flow=ledger.FLOW_SW_VAT_HIT,
            )

        # VAT miss: execute the Seccomp filter, then cache the validation.
        # (fall through)
        decision = self.seccomp.check(event)
        cycles = self.costs.sw_draco_hit_cycles + self._filter_cycles(
            decision.instructions_executed
        )
        if decision.allowed:
            self.tables.vat.insert(event.sid, key, event.args)
            cycles += self.costs.sw_draco_insert_cycles
            self.stats.filter_runs += 1
            self.stats.filter_run_cycles += cycles
            return CheckOutcome(
                allowed=True, cycles=cycles, path="filter_run",
                flow=ledger.FLOW_SW_FILTER,
            )
        self.stats.denials += 1
        self.stats.denial_cycles += cycles
        return CheckOutcome(
            allowed=False, cycles=cycles, path="denied",
            action=decision.return_value, flow=ledger.FLOW_SW_DENIED,
        )
