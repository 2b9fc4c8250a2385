"""End-to-end dataset construction: crawl → preprocess → annotate → release.

Orchestrates every substrate in paper order and returns the
:class:`~repro.core.dataset.RSD15K` artefact plus a build report covering
each stage. This is the one-call entry point the quickstart example and
all experiments use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import perf
from repro.annotation.process import AnnotationCampaign, CampaignResult
from repro.core.config import AnnotationConfig, CorpusConfig
from repro.core.dataset import RSD15K
from repro.core.privacy import Anonymizer, audit_anonymisation
from repro.corpus.generator import CorpusGenerator, SyntheticCorpus
from repro.preprocess.pipeline import PreprocessPipeline, PreprocessReport


@dataclass
class BuildReport:
    """Stage-by-stage accounting of one dataset build."""

    raw_posts: int = 0
    annotated_slice_posts: int = 0
    preprocess: PreprocessReport = field(default_factory=PreprocessReport)
    campaign_kappa: float = 0.0
    campaign_label_noise: float = 0.0
    campaign_escalated: int = 0
    final_posts: int = 0
    final_users: int = 0

    def as_dict(self) -> dict:
        return {
            "raw_posts": self.raw_posts,
            "annotated_slice_posts": self.annotated_slice_posts,
            **{f"pre_{k}": v for k, v in self.preprocess.as_dict().items()},
            "campaign_kappa": self.campaign_kappa,
            "campaign_label_noise": self.campaign_label_noise,
            "campaign_escalated": self.campaign_escalated,
            "final_posts": self.final_posts,
            "final_users": self.final_users,
        }


@dataclass
class BuildResult:
    """Everything :func:`build_dataset` produced."""

    dataset: RSD15K
    corpus: SyntheticCorpus
    campaign: CampaignResult
    report: BuildReport


def build_dataset(
    corpus_config: CorpusConfig | None = None,
    annotation_config: AnnotationConfig | None = None,
    near_dedup: bool = True,
) -> BuildResult:
    """Run the full §II pipeline and return the released dataset.

    Parameters
    ----------
    corpus_config:
        Corpus size/signal parameters (defaults to the paper-scale corpus;
        use ``CorpusConfig().scaled(f)`` for smaller builds).
    annotation_config:
        Campaign parameters (defaults reproduce κ ≈ 0.72).
    near_dedup:
        Run MinHash near-duplicate removal (slower; exact dedup always on).
    """
    corpus_config = corpus_config or CorpusConfig()
    annotation_config = annotation_config or AnnotationConfig(
        seed=corpus_config.seed
    )

    with perf.span("build"):
        with perf.span("corpus"):
            corpus = CorpusGenerator(corpus_config).generate()
        report = BuildReport(raw_posts=len(corpus.raw_posts))

        annotated_slice = corpus.annotated_posts
        report.annotated_slice_posts = len(annotated_slice)

        with perf.span("preprocess"):
            pre = PreprocessPipeline(enable_near_dedup=near_dedup).run(
                annotated_slice
            )
        report.preprocess = pre.report

        with perf.span("annotation"):
            campaign = AnnotationCampaign(annotation_config).run(pre.posts)
        report.campaign_kappa = campaign.kappa
        report.campaign_label_noise = campaign.label_noise
        report.campaign_escalated = campaign.num_escalated

        labelled_posts = [p for p in pre.posts if p.post_id in campaign.labels]
        labels = dict(campaign.labels)

        with perf.span("anonymise"):
            anonymizer = Anonymizer(salt=f"rsd15k-{corpus_config.seed}")
            anonymised = anonymizer.anonymise(labelled_posts)
            audit_anonymisation(labelled_posts, anonymised)
            labels = {
                anonymizer.pseudonym(post_id, "p"): label
                for post_id, label in labels.items()
            }
            labelled_posts = anonymised

        with perf.span("dataset"):
            background = [p.text for p in corpus.background_posts]
            dataset = RSD15K(
                posts=labelled_posts,
                labels=labels,
                pretrain_texts=background,
                kappa=campaign.kappa,
            )
    report.final_posts = dataset.num_posts
    report.final_users = dataset.num_users
    # Stage gauges for the metrics exporters: corpus size in vs released
    # size out is the first thing to check when a build report looks off.
    perf.gauge("build.raw_posts", report.raw_posts)
    perf.gauge("build.final_posts", report.final_posts)
    perf.gauge("build.final_users", report.final_users)
    return BuildResult(
        dataset=dataset, corpus=corpus, campaign=campaign, report=report
    )
