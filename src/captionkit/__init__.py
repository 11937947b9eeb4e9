"""Convolutional image captioning at desk scale: a masked-convolution GLU
decoder with optional spatial attention, an LSTM baseline, teacher-forced
training with RMSProp, beam-search inference, and evaluation/diagnostic
tooling, all on a self-contained float64 autodiff engine."""

from captionkit.analysis import (
    AnalysisRecord,
    bleu,
    entropy_profile,
    grad_norm_probe,
    nll_loss,
    unique_words_per_position,
    word_accuracy,
)
from captionkit.autodiff import Tensor, backward, zero_gradients
from captionkit.checkpoint import load_checkpoint, save_checkpoint
from captionkit.convmodel import (
    CaptionModel,
    DecoderState,
    ModelConfig,
    attend,
)
from captionkit.convmodel import init_params as init_caption_model
from captionkit.data import (
    CorpusRecord,
    ImageFeatures,
    TokenSeq,
    Vocabulary,
    build_vocab,
    decode,
    encode,
    read_features,
    synth_corpus,
    write_features,
)
from captionkit.decoding import BeamHypothesis, beam_search, greedy_decode, sample_decode
from captionkit.lstmmodel import LstmConfig, LstmModel, LstmState
from captionkit.lstmmodel import init_params as init_lstm_model
from captionkit.training import (
    RmsProp,
    TrainConfig,
    lr_for_epoch,
    prepare_examples,
    train,
)

__all__ = [
    "AnalysisRecord",
    "BeamHypothesis",
    "CaptionModel",
    "CorpusRecord",
    "DecoderState",
    "ImageFeatures",
    "LstmConfig",
    "LstmModel",
    "LstmState",
    "ModelConfig",
    "RmsProp",
    "Tensor",
    "TokenSeq",
    "TrainConfig",
    "Vocabulary",
    "attend",
    "backward",
    "beam_search",
    "bleu",
    "build_vocab",
    "decode",
    "encode",
    "entropy_profile",
    "grad_norm_probe",
    "greedy_decode",
    "init_caption_model",
    "init_lstm_model",
    "load_checkpoint",
    "lr_for_epoch",
    "nll_loss",
    "prepare_examples",
    "read_features",
    "sample_decode",
    "save_checkpoint",
    "synth_corpus",
    "train",
    "unique_words_per_position",
    "word_accuracy",
    "write_features",
    "zero_gradients",
]
