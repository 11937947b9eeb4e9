"""Convolutional image captioning at desk scale: a masked-convolution GLU
decoder with optional spatial attention, an LSTM baseline, teacher-forced
training with RMSProp, beam-search inference, and evaluation/diagnostic
tooling, all on a self-contained float64 autodiff engine."""
