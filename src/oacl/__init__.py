"""Continual learning with gated bottleneck adapters under orthogonal
parameter-subspace constraints, at desk scale on a frozen synthetic backbone."""

from .adapters import (MaskSnapshot, OAAdapter, oa_forward, outer_product_form,
                       snapshot_mask, soft_threshold, soft_threshold_backward)
from .backbone import (AdapterStack, Backbone, begin_task, build_and_pretrain,
                       end_task, forward, load_checkpoint, predict_logits,
                       save_checkpoint)
from .metrics import (AccuracyMatrix, BudgetReport, accuracy,
                      avg_final_accuracy, budget_report, forgetting_per_task)
from .numerics import (GradCheckResult, Node, Param, Tape, check_gradients,
                       matmul, zero_grads)
from .orthogonality import (ActivatedBasis, activated_basis, orth_loss_pair,
                            orth_loss_total, overlap_diagnostic,
                            stack_overlap_summary)
from .tasks import (TaskDataset, TaskStream, gen_base, gen_task_stream,
                    random_orthogonal, reorder)
from .trainer import (RunResult, TaskTrainReport, TrainConfig, run_sequence,
                      total_loss, train_task)

__all__ = [name for name in dir() if not name.startswith("_")]
