"""Inductive representation learning on temporal graphs.

From-scratch implementation of a functional time encoder with learnable
frequencies, temporal graph attention layers over causality-respecting
neighborhood samples, and a train/evaluate/analyze pipeline for time-aware
link prediction and downstream node classification.
"""

from .autodiff import Tape, Tensor, backward, grad_check
from .layer import (
    Dims,
    LayerParams,
    SamplingConfig,
    TgatModel,
    attend_head,
    build_entity_matrix,
    embed,
    embed_tensor,
    feed_forward,
    head_parameter_formula,
    load_checkpoint,
    save_checkpoint,
)
from .metrics import accuracy, average_precision, roc_auc, spearman
from .temporal_graph import (
    AccessMonitor,
    NeighborhoodBatch,
    SplitSpec,
    TemporalEvent,
    TemporalGraph,
    build_graph,
    chronological_split,
    ingest,
    load_graph,
    load_graph_csv,
    mask_unseen,
    sample_neighborhoods,
    save_graph,
    temporal_neighborhood,
)
from .time_encoding import (
    KernelCheckReport,
    PositionalEncoder,
    TimeEncoder,
    kernel_convergence_check,
)
from .training import (
    AdamState,
    EvalMetrics,
    MlpConfig,
    TrainConfig,
    adam_step,
    attention_report,
    evaluate_links,
    link_loss,
    node_classify,
    train,
)

__version__ = "0.1.0"


def _keep_freed_memory() -> None:
    """Keep memory the process frees in its heap instead of handing it back.

    glibc gives blocks above 128 KiB their own mapping, which ``free``
    unmaps, and trims the freed top of the heap, so every training step
    zero-fills, page by page, the megabytes of hop temporaries the last
    step freed. A 64 MiB top pad makes each heap extension reserve that
    much beyond the request, so large blocks are carved from the heap top
    rather than mapped, and makes each trim keep that much. No arithmetic
    changes. Where the C library has no ``mallopt`` (macOS, Windows) this
    does nothing.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-2, 64 << 20)  # M_TOP_PAD, 64 MiB


_keep_freed_memory()
