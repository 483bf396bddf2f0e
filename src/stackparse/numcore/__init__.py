"""Minimal tensor/autodiff core: exactly the operations the tagger and
parser need, plus Adagrad and the shared training loop."""

from .init import glorot_uniform, make_rng, zeros
from .lstm import COUPLED, PEEPHOLE, LstmCell, bilstm_encode, lstm_layer
from .optim import AdagradState, fit
from .tensor import (
    NonFiniteError,
    Tensor,
    add,
    bilinear_labels,
    concat,
    crf_log_likelihood,
    cross_entropy_rows,
    dropout,
    leaky_relu,
    linear,
    matmul,
    mul,
    no_grad,
    parameter,
    softmax_rows_masked,
    tanh,
    zero_grads,
)
