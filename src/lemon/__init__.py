"""Lossless model expansion toolkit.

Expands small Transformer (and CNN-bottleneck) checkpoints into wider
and deeper ones that compute the identical function, verifies the
equivalence with a built-in reference forward pass, and emits the
fast-decay learning-rate schedules recommended for continued training
of expanded models.
"""

from .cnn import (BatchNormParams, BottleneckWeights, ConvWeights,
                  bottleneck_forward, expand_cnn_bottleneck)
from .container import (read_checkpoint, read_header, validate_header,
                        write_checkpoint)
from .errors import (BadMagicError, ContainerError, LemonError,
                     MalformedHeaderError, NumericsError, PlanError,
                     ShapeError, SplitError, TruncatedPayloadError,
                     UnsupportedVersionError)
from .expand_ops import (expand_bias, expand_layernorm, expand_matrix_cols,
                         expand_matrix_rows, expand_rmsnorm, expand_vector,
                         norm_expansion_gain)
from .expander import (ExpansionPlan, column_split, expand_block_width,
                       expand_decoder, expand_depth, expand_embeddings,
                       expand_mha, expand_mlp, expand_model,
                       layer_multiplicities, replica_groups)
from .model import (AttentionWeights, BlockWeights, EmbeddingWeights,
                    HeadWeights, MlpWeights, ModelSpec, ModelWeights,
                    NormParams, block_forward, mha_forward, mlp_forward,
                    model_forward, random_weights, validate_weights)
from .schedule import PRESETS, ScheduleSpec, cosine_lr, write_schedule_csv
from .verify import (VerifyReport, init_random_model, symmetry_report,
                     toy_mlp_gradient_step, verify_lossless)

__version__ = "0.1.0"
