"""Desk-scale audio-visual active speaker detection.

Cross-modal attention fusion feeds two decoupled interaction streams (one
over speakers within a frame, one over frames per speaker) that exchange
information through mutual cross-attention; a separately trained
voice-confidence branch downgrades confident predictions on frames with
weak audio evidence.  Ships with a seeded synthetic scenario generator,
a from-scratch reverse-mode tensor engine, training loop, and ranking
evaluators.
"""

from .attention import AttentionBlock, cal_forward, sal_forward
from .data import GenConfig, Scenario, generate, read_corpus, write_corpus
from .encoders import AudioEncoder, VisualEncoder, fuse
from .evaluation import (PredictionRecord, average_precision, f1_per_speaker,
                         false_positive_count, read_predictions,
                         write_predictions)
from .gate import ConfidenceNet, GateParams, gate_batch, voice_confidence
from .losses import LossWeights, contrastive_av, masked_bce, total_loss
from .model import (ActiveSpeakerModel, DualStreamStack, ModelConfig,
                    ModelOutput, cross_interact, dual_forward, speaker_stream)
from .tensor import Parameter, Tensor, backward, linear, no_grad, zero_grads

__version__ = "0.1.0"
