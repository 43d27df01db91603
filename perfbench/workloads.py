"""The benchmark's workloads: corpus shape plus the train flags that differ
from ``TrainConfig`` defaults. Every workload pins ``ecr.nu`` or turns the
transport off, so a change of the default cannot change what is measured.
Why each workload was chosen is stated in BENCHMARK.json.
"""

from dataclasses import dataclass

from gen import CorpusSpec


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: CorpusSpec
    epochs: int
    train_flags: tuple


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "quickstart",
            CorpusSpec(V=100, K=5, G=5, D=1000),
            epochs=20,
            train_flags=("--ecr.nu", "0.05"),
        ),
        Workload(
            "transport_m",
            CorpusSpec(V=2000, K=50, G=20, D=1000),
            epochs=8,
            train_flags=("--ecr.nu", "0.05"),
        ),
        Workload(
            "corpus_l",
            CorpusSpec(V=3000, K=20, G=20, D=3000),
            epochs=1,
            train_flags=("--ecr.nu", "0.05", "--lambda_ecr", "0"),
        ),
    )
}
