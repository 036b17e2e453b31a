"""System configuration parameters.

``SystemParams.paper()`` reproduces Table I of the paper (32-core Alder
Lake-class configuration).  Because this reproduction runs on a pure-Python
timing model, scaled-down factory methods (``small``, ``quick``) are provided
for tests and quick benchmark sweeps; they preserve the *ratios* between
structures (ROB much larger than LQ, LQ larger than SB, small AQ) so that the
pipeline dynamics the paper studies survive the scaling.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace


class AtomicMode(enum.Enum):
    """When an atomic RMW is allowed to start executing.

    EAGER and LAZY are the two static policies of the paper's motivation
    (Sec. III); ROW selects dynamically per-atomic using the contention
    predictor (Sec. IV); FENCED models the legacy implementation with
    implicit full fences around the atomic's micro-ops (Sec. II-A, the "old
    x86 processor" behaviour in Fig. 2); FAR is an extension along the
    related-work axis the paper discusses (near vs far atomics): the RMW
    executes at the line's home L3/directory bank with no line transfer.
    ORACLE is the profile-guided upper bound the RoW predictor
    approximates: atomics whose PC is in ``RowParams.oracle_contended_pcs``
    (collected from a prior run's ground truth) execute lazy, all others
    eager.
    """

    EAGER = "eager"
    LAZY = "lazy"
    ROW = "row"
    FENCED = "fenced"
    FAR = "far"
    ORACLE = "oracle"

    @classmethod
    def from_name(cls, name: "str | AtomicMode") -> "AtomicMode":
        """Resolve a mode by value name (``"row"``) or pass one through."""
        if isinstance(name, cls):
            return name
        try:
            return cls(name)
        except ValueError:
            valid = ", ".join(m.value for m in cls)
            raise ValueError(
                f"unknown atomic mode {name!r} (valid: {valid})"
            ) from None


class ConsistencyKind(enum.Enum):
    """Which memory-consistency model the cores implement.

    TSO is the paper's (x86) baseline: loads ordered with loads, stores
    drain in FIFO order, only store->load reordering (through the store
    buffer) is visible.  RELAXED is a WMM-style weak model (Zhang/
    Vijayaraghavan/Arvind, *Taming Weak Memory Models*): load-load and
    store-store reordering are additionally permitted, and only fences
    (and same-address program order) restore order.  The enum is the
    params-level name; the operational rules live in
    ``repro.core.consistency`` behind the :class:`ConsistencyModel`
    protocol.
    """

    TSO = "tso"
    RELAXED = "relaxed"

    @classmethod
    def from_name(cls, name: "str | ConsistencyKind") -> "ConsistencyKind":
        """Resolve a model by value name (``"tso"``) or pass one through."""
        if isinstance(name, cls):
            return name
        try:
            return cls(name)
        except ValueError:
            valid = ", ".join(m.value for m in cls)
            raise ValueError(
                f"unknown consistency model {name!r} (valid: {valid})"
            ) from None


class DetectionMode(enum.Enum):
    """Contention-detection mechanism used to train the RoW predictor.

    EW      -- execution window: external requests hitting a *locked* line
               (Sec. IV-A).
    RW      -- ready window: track external requests from the moment the
               atomic's operands are ready, via the only-calculate-address
               pass (Sec. IV-B).
    RW_DIR  -- RW plus the directory-latency heuristic: data arriving from a
               remote private cache with latency above a threshold marks the
               atomic contended (Sec. IV-C).
    """

    EW = "ew"
    RW = "rw"
    RW_DIR = "rw+dir"


class PredictorKind(enum.Enum):
    """Saturating-counter update policy for the contention predictor."""

    UPDOWN = "u/d"
    SATURATE = "sat"
    PLUS2MINUS1 = "+2/-1"


class BranchPredictorKind(enum.Enum):
    BIMODAL = "bimodal"
    TAGE = "tage"


class ReplacementPolicy(enum.Enum):
    """Cache replacement policies selectable per level."""

    LRU = "lru"
    FIFO = "fifo"
    RANDOM = "random"
    SRRIP = "srrip"


class NetworkTopology(enum.Enum):
    """Interconnect topologies for the tiled CMP."""

    MESH = "mesh"  # 2-D mesh, XY routing (the paper's GARNET setup)
    RING = "ring"  # bidirectional ring, shortest-direction routing
    CROSSBAR = "crossbar"  # single-hop all-to-all (ideal, port-contended)


@dataclass(frozen=True)
class CacheParams:
    """Geometry and latency of one cache level."""

    size_bytes: int
    ways: int
    hit_cycles: int
    line_bytes: int = 64
    replacement: ReplacementPolicy = ReplacementPolicy.LRU

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        return max(1, self.num_lines // self.ways)


@dataclass(frozen=True)
class RowParams:
    """RoW mechanism configuration (Sec. IV)."""

    detection: DetectionMode = DetectionMode.RW_DIR
    predictor: PredictorKind = PredictorKind.UPDOWN
    predictor_entries: int = 64
    counter_bits: int = 4
    updown_threshold: int = 1  # lazy if counter > threshold (UpDown)
    saturate_threshold: int = 0  # lazy if counter > threshold (Saturate)
    latency_threshold: int | None = 400  # Dir detector; None means +inf
    timestamp_bits: int = 14  # request-issued-cycle field width
    forward_to_atomics: bool = False  # store->atomic forwarding enabled
    promote_on_forward: bool = True  # lazy->eager when a matching store found
    # Profile-guided contended-PC set for AtomicMode.ORACLE (two-pass
    # experiments): a tuple so the config stays hashable/picklable for the
    # result cache.
    oracle_contended_pcs: tuple[int, ...] = ()

    @property
    def counter_max(self) -> int:
        return (1 << self.counter_bits) - 1


@dataclass(frozen=True)
class SystemParams:
    """Full-system configuration (Table I of the paper, plus model knobs)."""

    # Processor
    num_cores: int = 32
    fetch_width: int = 6
    issue_width: int = 12
    commit_width: int = 12
    rob_entries: int = 512
    lq_entries: int = 192
    sb_entries: int = 128
    iq_entries: int = 128
    aq_entries: int = 16
    branch_predictor: BranchPredictorKind = BranchPredictorKind.TAGE
    branch_misp_penalty: int = 12
    use_storeset: bool = True
    storeset_ssit_entries: int = 1024
    storeset_lfst_entries: int = 128
    order_violation_flush_penalty: int = 10

    # Memory hierarchy (per-core private L1D/L2; shared banked L3)
    l1i: CacheParams = field(
        default_factory=lambda: CacheParams(32 * 1024, 8, 4)
    )
    l1d: CacheParams = field(
        default_factory=lambda: CacheParams(48 * 1024, 12, 5)
    )
    l2: CacheParams = field(
        default_factory=lambda: CacheParams(1024 * 1024, 8, 12)
    )
    l3_bank: CacheParams = field(
        default_factory=lambda: CacheParams(4 * 1024 * 1024, 16, 35)
    )
    memory_cycles: int = 160
    mshr_entries: int = 16
    enable_prefetcher: bool = True
    prefetcher_table_entries: int = 64
    prefetcher_degree: int = 2

    # Interconnect (tiled cores + L3/directory banks)
    topology: NetworkTopology = NetworkTopology.MESH
    link_cycles: int = 1
    router_cycles: int = 1
    link_bandwidth: int = 2  # messages per link per cycle
    model_link_contention: bool = True

    # Memory consistency (docs/consistency.md)
    consistency_model: ConsistencyKind = ConsistencyKind.TSO

    # Atomics
    atomic_mode: AtomicMode = AtomicMode.EAGER
    row: RowParams = field(default_factory=RowParams)
    alu_latency: int = 1
    store_forward_cycles: int = 2
    # Forward-progress guarantee for eager cache locking: an external request
    # stalled this long on a line locked by a not-yet-committed atomic squashes
    # and replays that atomic (timeout-based lock revocation).
    lock_revocation_timeout: int = 1500

    @property
    def line_bytes(self) -> int:
        return self.l1d.line_bytes

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------

    @staticmethod
    def paper(**overrides) -> "SystemParams":
        """The exact Table I configuration."""
        return replace(SystemParams(), **overrides)

    @staticmethod
    def small(**overrides) -> "SystemParams":
        """A scaled configuration for the default benchmark harness.

        8 cores, structure sizes divided by ~4, memory latencies preserved.
        Dynamics that matter to RoW (eager lock-hold times spanning many
        older instructions, lazy lock windows of a few cycles, directory
        round trips) are preserved.
        """
        base = SystemParams(
            num_cores=8,
            fetch_width=4,
            issue_width=6,
            commit_width=6,
            rob_entries=128,
            lq_entries=48,
            sb_entries=32,
            iq_entries=48,
            aq_entries=16,
            l1i=CacheParams(8 * 1024, 4, 4),
            l1d=CacheParams(8 * 1024, 4, 5),
            l2=CacheParams(64 * 1024, 8, 12),
            l3_bank=CacheParams(256 * 1024, 8, 35),
            mshr_entries=8,
            branch_predictor=BranchPredictorKind.TAGE,
            # Scaled Dir-detector threshold: on the paper's 32-core system
            # uncontended cache-to-cache transfers still take hundreds of
            # cycles, so 400 separates them from contended ones.  At 8 cores
            # an uncontended single-hop transfer takes ~42 cycles and any
            # queued (contended) one more, so ~40 is the scaled analog
            # (Fig. 10 sweeps this knob).
            row=RowParams(latency_threshold=40),
        )
        return replace(base, **overrides)

    @staticmethod
    def quick(**overrides) -> "SystemParams":
        """The smallest config with non-degenerate behaviour; for unit tests."""
        base = SystemParams(
            num_cores=4,
            fetch_width=4,
            issue_width=4,
            commit_width=4,
            rob_entries=64,
            lq_entries=24,
            sb_entries=16,
            iq_entries=24,
            aq_entries=8,
            l1i=CacheParams(4 * 1024, 4, 4),
            l1d=CacheParams(4 * 1024, 4, 5),
            l2=CacheParams(16 * 1024, 4, 12),
            l3_bank=CacheParams(64 * 1024, 8, 35),
            mshr_entries=4,
            branch_predictor=BranchPredictorKind.BIMODAL,
            enable_prefetcher=False,
            row=RowParams(latency_threshold=40),
        )
        return replace(base, **overrides)

    def with_atomic_mode(self, mode: AtomicMode, **row_overrides) -> "SystemParams":
        row = replace(self.row, **row_overrides) if row_overrides else self.row
        return replace(self, atomic_mode=mode, row=row)

    def with_consistency_model(
        self, model: "ConsistencyKind | str"
    ) -> "SystemParams":
        return replace(
            self, consistency_model=ConsistencyKind.from_name(model)
        )

    def validate(self) -> None:
        """Raise ``ValueError`` on configurations the model cannot support."""
        if self.num_cores < 1:
            raise ValueError("num_cores must be >= 1")
        if self.aq_entries < 1:
            raise ValueError("aq_entries must be >= 1")
        if self.sb_entries < 2:
            raise ValueError("sb_entries must be >= 2")
        if self.rob_entries < self.fetch_width:
            raise ValueError("rob_entries must hold at least one fetch group")
        for name in ("l1d", "l2", "l3_bank"):
            cache: CacheParams = getattr(self, name)
            if cache.num_sets < 1 or cache.ways < 1:
                raise ValueError(f"{name}: degenerate geometry {cache}")
        if self.row.counter_bits < 1:
            raise ValueError("counter_bits must be >= 1")
        if self.row.predictor_entries & (self.row.predictor_entries - 1):
            raise ValueError("predictor_entries must be a power of two")


#: The named machine presets (``--config`` and a campaign's ``base:``).
PRESETS = {
    "quick": SystemParams.quick,
    "small": SystemParams.small,
    "paper": SystemParams.paper,
}
