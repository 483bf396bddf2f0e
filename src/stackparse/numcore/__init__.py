"""Minimal tensor/autodiff core: exactly the operations the tagger and
parser need, plus Adagrad, the shared training loop, the parameter
manifest codec and a finite-difference gradient checker."""

from .gradcheck import grad_check
from .init import glorot_uniform, make_rng, zeros
from .lstm import COUPLED, PEEPHOLE, LstmCell, bilstm_encode
from .optim import AdagradState, fit
from .serialize import manifest_arrays, manifest_layout, manifest_read_into
from .tensor import (
    NonFiniteError,
    Tensor,
    add,
    append_ones_col,
    bilinear_labels,
    concat,
    crf_log_likelihood,
    dropout,
    get_default_dtype,
    leaky_relu,
    logsumexp_rows_masked,
    matmul,
    mul,
    no_grad,
    reshape,
    sigmoid,
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
    "get_default_dtype",
    "glorot_uniform",
    "grad_check",
    "leaky_relu",
    "logsumexp_rows_masked",
    "make_rng",
    "manifest_arrays",
    "manifest_layout",
    "manifest_read_into",
    "matmul",
    "mul",
    "no_grad",
    "reshape",
    "sigmoid",
    "softmax_rows_masked",
    "tanh",
    "transpose",
    "zero_grads",
    "zeros",
]
