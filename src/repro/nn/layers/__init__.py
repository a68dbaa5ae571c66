"""Neural-network layers with manual backpropagation."""

from repro.nn.layers.base import Layer
from repro.nn.layers.dense import Dense
from repro.nn.layers.conv import Conv2D
from repro.nn.layers.depthwise import DepthwiseConv2D
from repro.nn.layers.pool import GlobalAvgPool2D, MaxPool2D
from repro.nn.layers.activations import ReLU, ReLU6
from repro.nn.layers.batchnorm import BatchNorm
from repro.nn.layers.flatten import Flatten
from repro.nn.layers.dropout import Dropout

__all__ = [
    "Layer",
    "Dense",
    "Conv2D",
    "DepthwiseConv2D",
    "MaxPool2D",
    "GlobalAvgPool2D",
    "ReLU",
    "ReLU6",
    "BatchNorm",
    "Flatten",
    "Dropout",
]
