"""Minimal tensor/autodiff core: exactly the operations the tagger and
parser need, plus Adagrad and the shared training loop."""

from .init import glorot_uniform, make_rng, zeros
from .lstm import COUPLED, PEEPHOLE, LstmCell, bilstm_encode, lstm_layer
from .optim import AdagradState, fit
from .tensor import (
    NonFiniteError,
    Tensor,
    add,
    append_ones_col,
    bilinear_labels,
    concat,
    crf_log_likelihood,
    dropout,
    leaky_relu,
    logsumexp_rows_masked,
    matmul,
    mul,
    no_grad,
    parameter,
    reshape,
    softmax_rows_masked,
    tanh,
    transpose,
    zero_grads,
)

__all__ = [
    "AdagradState",
    "COUPLED",
    "LstmCell",
    "NonFiniteError",
    "PEEPHOLE",
    "Tensor",
    "add",
    "append_ones_col",
    "bilinear_labels",
    "bilstm_encode",
    "concat",
    "crf_log_likelihood",
    "dropout",
    "fit",
    "glorot_uniform",
    "leaky_relu",
    "logsumexp_rows_masked",
    "lstm_layer",
    "make_rng",
    "matmul",
    "mul",
    "no_grad",
    "parameter",
    "reshape",
    "softmax_rows_masked",
    "tanh",
    "transpose",
    "zero_grads",
    "zeros",
]
