"""Module system: parameter containers with train/eval state.

A lightweight analogue of ``torch.nn.Module`` sufficient for the paper's
models. Modules register :class:`Parameter` attributes and sub-modules
automatically through ``__setattr__`` and expose iteration, freezing
(needed for the paper's stationary components), and state serialization.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from .tensor import Tensor

__all__ = ["Parameter", "Buffer", "Module", "Sequential", "ModuleList"]


class Parameter(Tensor):
    """A trainable tensor owned by a module."""

    def __init__(self, data, name=None, dtype=None):
        super().__init__(data, requires_grad=True, dtype=dtype, name=name)


class Buffer(Tensor):
    """A non-trainable tensor tracked by a module (e.g. BatchNorm stats).

    Buffers are saved/restored with the module state but never receive
    gradients; the paper's stationary HDC codebooks are stored as buffers.
    """

    def __init__(self, data, name=None):
        super().__init__(data, requires_grad=False, name=name)


class Module:
    """Base class for all neural-network modules."""

    def __init__(self):
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)

    # -- attribute registration ---------------------------------------- #

    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self._parameters[name] = value
            self._buffers.pop(name, None)
            self._modules.pop(name, None)
        elif isinstance(value, Buffer):
            self._buffers[name] = value
            self._parameters.pop(name, None)
            self._modules.pop(name, None)
        elif isinstance(value, Module):
            self._modules[name] = value
            self._parameters.pop(name, None)
            self._buffers.pop(name, None)
        object.__setattr__(self, name, value)

    # -- forward -------------------------------------------------------- #

    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    # -- iteration ------------------------------------------------------ #

    def named_parameters(self, prefix=""):
        """Yield ``(qualified_name, Parameter)`` pairs recursively."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self):
        """Yield all parameters recursively."""
        for _, param in self.named_parameters():
            yield param

    def named_buffers(self, prefix=""):
        """Yield ``(qualified_name, Buffer)`` pairs recursively."""
        for name, buf in self._buffers.items():
            yield (f"{prefix}{name}", buf)
        for name, module in self._modules.items():
            yield from module.named_buffers(prefix=f"{prefix}{name}.")

    def modules(self):
        """Yield self and all sub-modules recursively."""
        yield self
        for module in self._modules.values():
            yield from module.modules()

    def num_parameters(self, trainable_only=True):
        """Total number of scalar parameters."""
        return sum(
            p.size for p in self.parameters() if p.requires_grad or not trainable_only
        )

    # -- state ----------------------------------------------------------- #

    def train(self, mode=True):
        """Set training mode recursively; returns self."""
        for module in self.modules():
            object.__setattr__(module, "training", mode)
        return self

    def eval(self):
        """Set evaluation mode recursively; returns self."""
        return self.train(False)

    def zero_grad(self):
        """Clear gradients of all parameters."""
        for param in self.parameters():
            param.zero_grad()

    def freeze(self):
        """Make every parameter stationary (requires_grad = False).

        Mirrors the paper's deployment step (Fig 3): after Phase III the
        whole model is frozen for zero-shot inference.
        """
        for param in self.parameters():
            param.requires_grad = False
        return self

    def unfreeze(self):
        """Re-enable gradients on every parameter."""
        for param in self.parameters():
            param.requires_grad = True
        return self

    def state_dict(self):
        """Return a flat ``name → numpy array`` snapshot of params and buffers."""
        state = {}
        for name, param in self.named_parameters():
            state[name] = param.data.copy()
        for name, buf in self.named_buffers():
            state[name] = buf.data.copy()
        return state

    def load_state_dict(self, state, strict=True):
        """Load arrays produced by :meth:`state_dict` into this module."""
        own = dict(self.named_parameters())
        own.update(dict(self.named_buffers()))
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if strict and (missing or unexpected):
            raise KeyError(
                f"state mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}"
            )
        for name, tensor in own.items():
            if name in state:
                value = np.asarray(state[name], dtype=tensor.data.dtype)
                if value.shape != tensor.data.shape:
                    raise ValueError(
                        f"shape mismatch for {name}: {value.shape} vs {tensor.data.shape}"
                    )
                tensor.data = value.copy()
        return self


class Sequential(Module):
    """Apply modules in order.

    The layers are the registered sub-modules ``layer0``, ``layer1``, …,
    so replacing one by attribute (as ``deploy()`` does with a folded
    BatchNorm) replaces it in the forward pass too.
    """

    def __init__(self, *layers):
        super().__init__()
        for index, layer in enumerate(layers):
            setattr(self, f"layer{index}", layer)

    def forward(self, x):
        for layer in self._modules.values():
            x = layer(x)
        return x

    def __iter__(self):
        return iter(self._modules.values())

    def __len__(self):
        return len(self._modules)

    def __getitem__(self, index):
        return list(self._modules.values())[index]


class ModuleList(Module):
    """A list of sub-modules that registers each element."""

    def __init__(self, modules=()):
        super().__init__()
        self._items = []
        for module in modules:
            self.append(module)

    def append(self, module):
        setattr(self, f"item{len(self._items)}", module)
        self._items.append(module)
        return self

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)

    def __getitem__(self, index):
        return self._items[index]
