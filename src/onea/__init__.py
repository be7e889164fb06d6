"""Asymmetric single-adapter fusion for step-imbalanced class-incremental
learning, plus a deterministic desk-scale harness to compare strategies."""

from .adapter import (AdapterModule, TaskMeta, adapter_forward, deserialize,
                      load_module, mergeable, save_module, serialize)
from .errors import (ConfigError, FormatError, NumericError, OneaError,
                     ShapeError, TrainingError)
from .merge import (GateVector, InfoProxy, MergeConfig, MergeTrace,
                    SingularDecomposition, gate_vector, info_weights,
                    merge_average, merge_layer, merge_modules, merge_symmetric,
                    select_roles, thin_svd)
from .metrics import (RunReport, average_accuracy, forgetting, last_accuracy,
                      weighted_average_accuracy)
from .sim import (Backbone, PrototypeBank, Strategy, TrainConfig,
                  adapted_features, classify, classify_batch,
                  compute_prototypes, epoch_schedule, fold, lambda_schedule,
                  run_sequence, run_strategies, train_task)
from .stream import (StreamSpec, SyntheticDataset, Task, TaskOrder, TaskStream,
                     allocate_tasks, build_stream, class_ratios)

__version__ = "0.1.0"
