"""Dataset card generation (Datasheets-for-Datasets style).

A dataset release of this sensitivity needs standardised documentation.
This module renders a Markdown datasheet for any :class:`RSD15K` instance:
motivation, composition, collection/annotation process, privacy measures,
and recommended/ discouraged uses — populated with the *measured*
statistics of the concrete instance rather than hand-written numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.dataset import RSD15K


@dataclass(frozen=True)
class DatacardOptions:
    """Rendering options."""

    title: str = "RSD-15K (synthetic rebuild)"
    maintainer: str = "repro reproduction harness"
    include_ethics: bool = True


def _composition_section(dataset: RSD15K) -> str:
    dist = dataset.label_distribution()
    rows = "\n".join(
        f"| {label} | {count} | {pct:.2f}% |"
        for label, count, pct in dist.as_rows()
    )
    counts = np.array(sorted(dataset.posts_per_user().values()))
    return f"""## Composition

* **Instances:** {dataset.num_posts} posts from {dataset.num_users} users,
  each post labelled with one of four C-SSRS-derived risk levels.
* **Per-user structure:** complete chronological posting histories
  (median {int(np.median(counts))} posts/user, max {int(counts.max())},
  {100 * float((counts < 20).mean()):.1f}% of users below 20 posts).

| Label | Count | Share |
|---|---|---|
{rows}
"""


def _collection_section(dataset: RSD15K) -> str:
    times = [p.created_utc for p in dataset.posts]
    start, end = min(times), max(times)
    kappa = f"{dataset.kappa:.4f}" if dataset.kappa is not None else "n/a"
    return f"""## Collection & annotation

* **Source:** simulated Reddit r/SuicideWatch crawl,
  {start.date()} – {end.date()} (substituting the gated original corpus).
* **Pre-processing:** relevance filtering, noise stripping, exact and
  MinHash near-duplicate removal, chronological partitioning per user.
* **Annotation:** three trained annotators under the paper's protocol —
  95% training gate, uncertainty reporting, 30% jointly labelled with
  3-way voting, daily 10% expert inspections.
* **Agreement:** Fleiss' kappa = {kappa} on the joint subset.
"""


def _privacy_section() -> str:
    return """## Privacy & ethics

* All author handles and post identifiers are salted hashes; user-history
  linkability is preserved but re-identification is not possible from the
  released data (verified by an automated audit at build time).
* Residual PII patterns (e-mails, phone numbers, user mentions) are
  scrubbed from post text.
* This instance is **fully synthetic** — no real user contributed any
  text — and exists to exercise the processing/benchmark pipeline.

### Intended uses

* Benchmarking user-level suicide-risk classifiers and risk-evolution
  models; methods research on temporal mental-health signals.

### Discouraged uses

* Any deployment that makes decisions about real individuals without
  clinical oversight; training generative models to imitate crisis
  language; attempts to link records to real accounts.
"""


def render_datacard(
    dataset: RSD15K, options: DatacardOptions | None = None
) -> str:
    """Render the full Markdown datasheet."""
    options = options or DatacardOptions()
    parts = [
        f"# Dataset card — {options.title}",
        "",
        f"Maintainer: {options.maintainer}",
        "",
        "## Motivation",
        "",
        "Early detection of suicide risk from social-media posting "
        "behaviour, with user-level longitudinal labels supporting "
        "risk-evolution modelling (RSD-15K, ICDE 2025).",
        "",
        _composition_section(dataset),
        _collection_section(dataset),
    ]
    if options.include_ethics:
        parts.append(_privacy_section())
    return "\n".join(parts)
