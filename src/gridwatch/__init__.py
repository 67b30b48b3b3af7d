"""Two-level consumption-pattern anomaly detection for metering networks.

Pipeline pieces: ingest raw half-hourly readings into per-home and
neighborhood datasets (`ingest`), train regression-tree load models
(`trees`), inject labeled overloading attacks (`attacks`), run the
residual-threshold detectors and decision fusion (`detect`), and evaluate
end to end on synthetic neighborhoods (`synth`, `scenario`, `metrics`).
"""

from .attacks import ATTACK_TYPES, AttackSpec, LabeledSeries, apply_attack, generate_corpus
from .detect import (AlertEvent, DecisionMaker, NbhDetectorState, ShDetectorState,
                     decide, nbh_step, sh_step)
from .ingest import (Dataset, FeatureVector, MeterReading, Readings, build_nbh_dataset,
                     build_sh_dataset, clean_dataset, decode_timestamp, parse_raw,
                     split_train_validation)
from .metrics import roc_curve
from .scenario import ScenarioConfig, benchmark_models, run_scenario
from .synth import SynthProfile, synth_columns, synth_raw_lines, synth_readings
from .trees import (TreeModel, TreeParams, deserialize, evaluate, predict,
                    sd_reduction, serialize, train_model_tree, train_rep_tree)

__version__ = "0.1.0"
