"""QoR trend database: nightly history with rolling-window gating.

The committed ``BENCH_qor_baseline.json`` gates PRs against one frozen
reference; the **trend database** gates the nightly campaign against
its own recent history instead.  It is a single SQLite file,
append-only in spirit: every nightly run *ingests* its campaign JSONL
(``repro trend ingest``) as one row per
``(commit, suite, variant, seed, metric)``, and the *gate*
(``repro trend gate``) compares the newest ingest's metrics against
the **median of the previous N ingests** with per-metric tolerances —
so a slow drift that never trips the 5% PR gate in one step is caught
once it crosses the window median, and a noisy single night does not
move the reference the way re-baselining would.  ``repro trend
report`` renders the same comparison as a Markdown drift table.

Design constraints:

* **Determinism** — nothing time-derived is stored or consulted:
  ingests are ordered by their integer ``ingest_id``, so running the
  gate twice on the same file yields the same verdict, and the gate
  reads only (never writes) the database.
* **Idempotent ingest** — re-ingesting the same ``(commit, campaign)``
  replaces the earlier ingest rather than double-counting it, so a
  re-run nightly (or a crashed-and-retried CI job) cannot stuff the
  window with duplicates.
* **Seed granularity** — metrics aggregate per ``(suite, variant,
  seed)`` (the JSONL's deterministic axes), one notch finer than the
  committed baseline's ``suite/variant`` groups: a regression that
  only one seed exposes is not averaged away.

In CI the file lives in ``actions/cache`` under a monotonic key with a
prefix ``restore-keys`` fallback (see ``nightly.yml``): every night
restores the newest database, ingests, gates, and saves a new cache
entry — the database accumulates across nightlies with no committed
file to churn.
"""

from __future__ import annotations

import json
import sqlite3
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.campaign import qor_metrics

#: Schema version stamped into the database; a mismatch refuses the
#: file rather than silently misreading it (regenerate or migrate).
TREND_SCHEMA_VERSION = 1

#: Default database filename (CI caches it under this name).
DEFAULT_DB = "qor_trend.db"

#: Default rolling-window length: the last N ingests *before* the
#: newest one form the reference.
DEFAULT_WINDOW = 7

#: Minimum history points before a series is gated at all; below
#: this the series reports ``new`` and passes (a fresh database must
#: not fail its first nights).
DEFAULT_MIN_HISTORY = 2

#: Fractional tolerances around the window median, per metric family.
#: Tighter than the PR gate's one-shot tolerances is tempting, but the
#: window median is itself a noisy reference on short windows, so the
#: same slack is used; the win over the committed baseline is that the
#: reference tracks reality.
TREND_TOLERANCES = {
    "wirelength": 0.05,
    "param_bits": 0.01,
    "fmax": 0.05,
    "speedup": 0.10,
    "frequency_ratio": 0.05,
}

#: metric name -> (tolerance family, higher_is_worse).  Exactly the
#: per-group metrics of :func:`repro.bench.campaign.qor_metrics`.
TREND_METRICS: Dict[str, Tuple[str, bool]] = {
    "mdr_wirelength": ("wirelength", True),
    "dcs_wirelength": ("wirelength", True),
    "dcs_param_bits": ("param_bits", True),
    "em_param_bits": ("param_bits", True),
    "mean_speedup": ("speedup", False),
    "mean_mdr_fmax": ("fmax", False),
    "mean_dcs_fmax": ("fmax", False),
    "mean_frequency_ratio": ("frequency_ratio", False),
}

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS ingests (
    ingest_id  INTEGER PRIMARY KEY AUTOINCREMENT,
    commit_sha TEXT NOT NULL,
    campaign   TEXT NOT NULL,
    label      TEXT NOT NULL DEFAULT '',
    n_records  INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS metrics (
    ingest_id INTEGER NOT NULL
        REFERENCES ingests(ingest_id) ON DELETE CASCADE,
    suite   TEXT NOT NULL,
    variant TEXT NOT NULL,
    seed    INTEGER NOT NULL,
    metric  TEXT NOT NULL,
    value   REAL NOT NULL,
    PRIMARY KEY (ingest_id, suite, variant, seed, metric)
);
CREATE INDEX IF NOT EXISTS metrics_by_series
    ON metrics (suite, variant, seed, metric, ingest_id);
"""


class TrendError(Exception):
    """Unusable database or unusable ingest input."""


def connect(path: str) -> sqlite3.Connection:
    """Open (creating if absent) a trend database."""
    conn = sqlite3.connect(path)
    conn.execute("PRAGMA foreign_keys = ON")
    conn.executescript(_SCHEMA)
    row = conn.execute(
        "SELECT value FROM meta WHERE key = 'schema_version'"
    ).fetchone()
    if row is None:
        conn.execute(
            "INSERT INTO meta (key, value) VALUES "
            "('schema_version', ?)",
            (str(TREND_SCHEMA_VERSION),),
        )
        conn.commit()
    elif int(row[0]) != TREND_SCHEMA_VERSION:
        conn.close()
        raise TrendError(
            f"{path}: trend schema v{row[0]}, this code speaks "
            f"v{TREND_SCHEMA_VERSION} — regenerate the database"
        )
    return conn


# ---------------------------------------------------------------------------
# Ingest
# ---------------------------------------------------------------------------


def load_records_jsonl(path: str) -> List[Dict[str, object]]:
    """Parse a campaign JSONL; unparsable lines are an error here.

    Ingest consumes *finished* campaign files — unlike checkpoint
    resume, a torn line at ingest time means the campaign did not
    complete and the night's data would be partial, so it is refused
    instead of silently trimmed.
    """
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            if not line.strip():
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as error:
                raise TrendError(
                    f"{path}:{number}: unparsable JSONL line "
                    f"({error}) — ingest needs a completed campaign "
                    "file"
                ) from None
    return records


def seed_metrics(
    records: Sequence[Dict[str, object]]
) -> Dict[Tuple[str, str, int], Dict[str, float]]:
    """Deterministic aggregates per ``(suite, variant, seed)``.

    Reuses :func:`qor_metrics` (the committed-baseline aggregator) on
    each per-seed slice, so the two gates can never disagree about
    what a metric means.
    """
    out: Dict[Tuple[str, str, int], Dict[str, float]] = {}
    seeds = sorted({record["seed"] for record in records})
    for seed in seeds:
        per_seed = [r for r in records if r["seed"] == seed]
        for group, row in qor_metrics(per_seed).items():
            suite, variant = group.split("/", 1)
            out[(suite, variant, seed)] = {
                metric: float(row[metric]) for metric in TREND_METRICS
            }
    return out


@dataclass
class IngestResult:
    ingest_id: int
    campaign: str
    commit: str
    n_rows: int
    replaced: bool


def ingest(
    conn: sqlite3.Connection,
    records: Sequence[Dict[str, object]],
    commit: str,
    label: str = "",
) -> IngestResult:
    """Add one campaign run's metrics as the newest ingest.

    The campaign name is read off the records (they all carry it); a
    mixed file is refused.  An existing ingest for the same
    ``(commit, campaign)`` is replaced.
    """
    if not records:
        raise TrendError("no records to ingest")
    campaigns = {record.get("campaign") for record in records}
    if len(campaigns) != 1 or None in campaigns:
        raise TrendError(
            f"records name {len(campaigns)} campaigns "
            f"({sorted(str(c) for c in campaigns)}); ingest one "
            "campaign per call"
        )
    campaign = campaigns.pop()

    replaced = False
    for (old_id,) in conn.execute(
        "SELECT ingest_id FROM ingests "
        "WHERE commit_sha = ? AND campaign = ?",
        (commit, campaign),
    ).fetchall():
        conn.execute(
            "DELETE FROM ingests WHERE ingest_id = ?", (old_id,)
        )
        replaced = True

    cursor = conn.execute(
        "INSERT INTO ingests (commit_sha, campaign, label, n_records)"
        " VALUES (?, ?, ?, ?)",
        (commit, campaign, label, len(records)),
    )
    ingest_id = cursor.lastrowid
    rows = [
        (ingest_id, suite, variant, seed, metric, value)
        for (suite, variant, seed), metrics in sorted(
            seed_metrics(records).items()
        )
        for metric, value in sorted(metrics.items())
    ]
    conn.executemany(
        "INSERT INTO metrics "
        "(ingest_id, suite, variant, seed, metric, value) "
        "VALUES (?, ?, ?, ?, ?, ?)",
        rows,
    )
    conn.commit()
    return IngestResult(
        ingest_id, campaign, commit, len(rows), replaced
    )


# ---------------------------------------------------------------------------
# Rolling-window comparison
# ---------------------------------------------------------------------------


@dataclass
class SeriesDrift:
    """One ``(suite, variant, seed, metric)`` series vs its window."""

    suite: str
    variant: str
    seed: int
    metric: str
    value: float
    #: Window values, oldest first (may be short or empty).
    window: List[float] = field(default_factory=list)

    @property
    def series(self) -> str:
        return f"{self.suite}/{self.variant}/s{self.seed}"

    @property
    def median(self) -> Optional[float]:
        return statistics.median(self.window) if self.window else None

    @property
    def delta(self) -> Optional[float]:
        """Fractional change vs the window median (None: no window
        or a zero median)."""
        median = self.median
        if median is None or median == 0.0:
            return None
        return self.value / median - 1.0

    def status(
        self,
        tolerances: Optional[Dict[str, float]] = None,
        min_history: int = DEFAULT_MIN_HISTORY,
    ) -> str:
        """``new`` | ``ok`` | ``improved`` | ``regressed``."""
        tol_map = dict(TREND_TOLERANCES)
        tol_map.update(tolerances or {})
        family, higher_is_worse = TREND_METRICS[self.metric]
        tolerance = tol_map[family]
        delta = self.delta
        if len(self.window) < min_history or delta is None:
            return "new"
        worse = delta if higher_is_worse else -delta
        if worse > tolerance:
            return "regressed"
        if worse < -tolerance:
            return "improved"
        return "ok"


@dataclass
class GateOutcome:
    """Everything one gate evaluation saw (also feeds the report)."""

    campaign: str
    ingest_id: int
    commit: str
    label: str
    window: int
    #: Ingest ids the window actually used, oldest first.
    window_ids: List[int]
    drifts: List[SeriesDrift]
    violations: List[str]

    @property
    def passed(self) -> bool:
        return not self.violations


def latest_ingest(
    conn: sqlite3.Connection, campaign: Optional[str] = None
) -> Tuple[int, str, str, str]:
    """(ingest_id, campaign, commit, label) of the newest ingest."""
    if campaign is None:
        row = conn.execute(
            "SELECT ingest_id, campaign, commit_sha, label "
            "FROM ingests ORDER BY ingest_id DESC LIMIT 1"
        ).fetchone()
    else:
        row = conn.execute(
            "SELECT ingest_id, campaign, commit_sha, label "
            "FROM ingests WHERE campaign = ? "
            "ORDER BY ingest_id DESC LIMIT 1",
            (campaign,),
        ).fetchone()
    if row is None:
        raise TrendError(
            "empty trend database"
            if campaign is None
            else f"no ingests for campaign {campaign!r}"
        )
    return row[0], row[1], row[2], row[3]


def evaluate(
    conn: sqlite3.Connection,
    campaign: Optional[str] = None,
    window: int = DEFAULT_WINDOW,
    tolerances: Optional[Dict[str, float]] = None,
    min_history: int = DEFAULT_MIN_HISTORY,
) -> GateOutcome:
    """Compare the newest ingest against its rolling window.

    For every series the newest ingest carries, the reference is the
    **median** over the up-to-*window* previous ingests of the same
    campaign that carry the series (a median shrugs off one bad night
    in the history; a mean would not).  Series with fewer than
    *min_history* reference points pass as ``new``.  Regressions —
    beyond tolerance in the bad direction — become violations;
    improvements never do (they simply pull the future median along,
    ratcheting the reference).
    """
    ingest_id, campaign, commit, label = latest_ingest(
        conn, campaign
    )
    window_ids = [
        row[0]
        for row in conn.execute(
            "SELECT ingest_id FROM ingests "
            "WHERE campaign = ? AND ingest_id < ? "
            "ORDER BY ingest_id DESC LIMIT ?",
            (campaign, ingest_id, window),
        )
    ]
    window_ids.reverse()  # oldest first

    drifts: List[SeriesDrift] = []
    for suite, variant, seed, metric, value in conn.execute(
        "SELECT suite, variant, seed, metric, value FROM metrics "
        "WHERE ingest_id = ? "
        "ORDER BY suite, variant, seed, metric",
        (ingest_id,),
    ):
        history = [
            row[0]
            for row in conn.execute(
                "SELECT value FROM metrics "
                "WHERE suite = ? AND variant = ? AND seed = ? "
                "AND metric = ? "
                f"AND ingest_id IN ({','.join('?' * len(window_ids))})"
                " ORDER BY ingest_id",
                (suite, variant, seed, metric, *window_ids),
            )
        ] if window_ids else []
        drifts.append(
            SeriesDrift(suite, variant, seed, metric, value, history)
        )

    tol_map = dict(TREND_TOLERANCES)
    tol_map.update(tolerances or {})
    violations = []
    for drift in drifts:
        if drift.status(tol_map, min_history) != "regressed":
            continue
        family, _higher_is_worse = TREND_METRICS[drift.metric]
        violations.append(
            f"{drift.series}: {drift.metric} drifted "
            f"{drift.median:.4f} -> {drift.value:.4f} "
            f"({100 * drift.delta:+.1f}% vs the median of "
            f"{len(drift.window)} nightly runs, tolerance "
            f"{100 * tol_map[family]:.0f}%)"
        )
    return GateOutcome(
        campaign=campaign,
        ingest_id=ingest_id,
        commit=commit,
        label=label,
        window=window,
        window_ids=window_ids,
        drifts=drifts,
        violations=violations,
    )


# ---------------------------------------------------------------------------
# Markdown drift report
# ---------------------------------------------------------------------------


def drift_report(
    outcome: GateOutcome,
    tolerances: Optional[Dict[str, float]] = None,
    min_history: int = DEFAULT_MIN_HISTORY,
) -> str:
    """Render a gate evaluation as a Markdown drift table."""
    lines = [
        "# QoR trend report",
        "",
        f"Campaign **{outcome.campaign}**, newest ingest "
        f"#{outcome.ingest_id} (commit `{outcome.commit}`"
        + (f", {outcome.label}" if outcome.label else "")
        + ") vs the median of the previous "
        f"{len(outcome.window_ids)} ingest(s) "
        f"(window {outcome.window}).",
        "",
        f"Verdict: **{'PASS' if outcome.passed else 'FAIL'}** "
        f"({len(outcome.violations)} regression(s), "
        f"{len(outcome.drifts)} series checked).",
        "",
        "| series | metric | latest | window median | drift |"
        " status |",
        "|---|---|---:|---:|---:|---|",
    ]
    for drift in outcome.drifts:
        median = drift.median
        delta = drift.delta
        status = drift.status(tolerances, min_history)
        marker = {
            "regressed": "**REGRESSED**",
            "improved": "improved",
            "ok": "ok",
            "new": "new (history "
                   f"{len(drift.window)}/{min_history})",
        }[status]
        lines.append(
            f"| {drift.series} | {drift.metric} "
            f"| {drift.value:.4f} "
            f"| {'-' if median is None else format(median, '.4f')} "
            f"| {'-' if delta is None else format(100 * delta, '+.1f') + '%'} "
            f"| {marker} |"
        )
    if outcome.violations:
        lines += ["", "## Regressions", ""]
        lines += [f"- {violation}" for violation in outcome.violations]
    lines.append("")
    return "\n".join(lines)


def history_table(
    conn: sqlite3.Connection,
) -> List[Tuple[int, str, str, str, int]]:
    """All ingests, oldest first (for ``repro trend ingest -v``)."""
    return list(
        conn.execute(
            "SELECT ingest_id, campaign, commit_sha, label, "
            "n_records FROM ingests ORDER BY ingest_id"
        )
    )
