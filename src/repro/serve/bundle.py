"""One-file model artifacts for the scoring service.

A :class:`ModelBundle` is everything a server — or any offline caller —
needs to score links: the trained weights, the model's architecture
spec (class name + constructor kwargs, recovered from the live module),
the :class:`~repro.seal.features.FeatureConfig`, the extraction settings
the model was trained under, and the class names. Saved as a single
``.npz`` through the same atomic meta-npz idiom training checkpoints use
(:func:`repro.utils.serialization.write_meta_npz`), so a scorer is built
from one file instead of six hand-copied keyword arguments, where any
mismatch would silently produce wrong-width features.

The architecture spec is captured, not pickled: a registry maps each
supported classifier to a function that derives its constructor kwargs
back out of the module's own attributes, and ``build_model()``
re-instantiates the class and loads the state dict strictly, so a
round-tripped bundle reproduces the original probabilities exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.nn.module import Module
from repro.seal.features import FeatureConfig, dump_feature_config, load_feature_config
from repro.utils.serialization import PathLike, read_meta_npz, write_meta_npz

__all__ = ["BUNDLE_VERSION", "BundleError", "ModelBundle"]

BUNDLE_VERSION = 1


class BundleError(ValueError):
    """A bundle is internally inconsistent, unreadable, or unsupported."""


# --------------------------------------------------------------------- #
# architecture capture: live module -> (class name, constructor kwargs)
# --------------------------------------------------------------------- #
def _backbone_kwargs(model: Module) -> Dict[str, Any]:
    """Constructor kwargs every DGCNN-backbone subclass shares.

    Derived from the module's own attributes: the first conv layer holds
    the in/hidden widths, the conv stack length fixes the layer count
    (the extra entry is the 1-wide sort-key layer), and the classifier
    head fixes ``num_classes``.
    """
    return {
        "in_dim": int(model.convs[0].in_dim),
        "num_classes": int(model.lin2.out_features),
        "hidden_dim": int(model.convs[0].out_dim),
        "num_conv_layers": len(model.convs) - 1,
        "sort_k": int(model.sort_k),
        "dropout": float(model.drop.p),
        "center_pool": bool(model.center_pool),
    }


def _capture_vanilla(model: Module) -> Dict[str, Any]:
    return _backbone_kwargs(model)


def _capture_am(model: Module) -> Dict[str, Any]:
    return {
        **_backbone_kwargs(model),
        "edge_dim": int(model.edge_dim),
        "heads": int(model.heads),
        "edge_in_message": bool(model.edge_in_message),
    }


def _capture_rgcn(model: Module) -> Dict[str, Any]:
    return {
        **_backbone_kwargs(model),
        "num_relations": int(model.num_relations),
        "num_bases": int(model.convs[0].num_bases),
    }


_CAPTURE: Dict[str, Callable[[Module], Dict[str, Any]]] = {
    "VanillaDGCNN": _capture_vanilla,
    "AMDGCNN": _capture_am,
    "RGCNDGCNN": _capture_rgcn,
}


def _model_classes() -> Dict[str, type]:
    # Deferred so importing repro.serve does not pull the model zoo in.
    from repro.models import AMDGCNN, RGCNDGCNN, VanillaDGCNN

    return {
        "VanillaDGCNN": VanillaDGCNN,
        "AMDGCNN": AMDGCNN,
        "RGCNDGCNN": RGCNDGCNN,
    }


@dataclass
class ModelBundle:
    """A trained link classifier plus everything needed to serve it.

    Attributes
    ----------
    model_class: registry name of the classifier (e.g. ``"AMDGCNN"``).
    model_kwargs: constructor kwargs that rebuild the architecture.
    model_state: trained parameter arrays (``state_dict`` layout).
    feature_config: node-attribute recipe the model was trained under.
    num_classes: label-space size, always equal to the model head width.
    class_names: human-readable class names (len == ``num_classes``).
    num_hops / subgraph_mode / max_subgraph_nodes / edge_attr_dim:
        extraction settings of the training task.
    extraction_seed: seed material for the per-pair extraction streams.
    task_name: dataset name baked into the extraction stream key.
    compute_dtype: precision policy the scorer should serve under
        (``"float64"`` or ``"float32"``). Recorded at save time; bundles
        written before the policy existed load as ``"float64"``.
    """

    model_class: str
    model_kwargs: Dict[str, Any]
    model_state: Dict[str, np.ndarray]
    feature_config: FeatureConfig
    num_classes: int
    class_names: List[str] = field(default_factory=list)
    num_hops: int = 2
    subgraph_mode: str = "union"
    max_subgraph_nodes: Optional[int] = 100
    edge_attr_dim: int = 0
    extraction_seed: int = 0
    task_name: str = "serve"
    compute_dtype: str = "float64"

    def __post_init__(self) -> None:
        if self.model_class not in _CAPTURE:
            raise BundleError(
                f"unknown model class {self.model_class!r}; bundles support "
                f"{sorted(_CAPTURE)}"
            )
        head = int(self.model_kwargs.get("num_classes", self.num_classes))
        if head != self.num_classes:
            raise BundleError(
                f"bundle num_classes {self.num_classes} != model output head "
                f"width {head}"
            )
        if not self.class_names:
            self.class_names = [f"class_{c}" for c in range(self.num_classes)]
        if len(self.class_names) != self.num_classes:
            raise BundleError(
                f"{len(self.class_names)} class names for {self.num_classes} classes"
            )
        if self.model_kwargs.get("in_dim") != self.feature_config.width:
            raise BundleError(
                f"model input width {self.model_kwargs.get('in_dim')} != "
                f"feature config width {self.feature_config.width}"
            )
        from repro.nn.dtype import resolve_dtype

        try:
            resolve_dtype(self.compute_dtype)
        except ValueError as exc:
            raise BundleError(str(exc))

    # ------------------------------------------------------------------ #
    # construction from a live model
    # ------------------------------------------------------------------ #
    @classmethod
    def from_model(
        cls,
        model: Module,
        task,
        *,
        extraction_seed: int = 0,
        task_name: Optional[str] = None,
        compute_dtype: str = "float64",
    ) -> "ModelBundle":
        """Capture ``model`` and its training ``task`` as a bundle.

        The class count is derived from the model's output head — never
        from a label array — and validated against the task's label
        space. Extraction and feature settings come from ``task``.
        """
        name = type(model).__name__
        capture = _CAPTURE.get(name)
        if capture is None:
            raise BundleError(
                f"cannot bundle a {name}; supported classes: {sorted(_CAPTURE)}"
            )
        head = int(model.lin2.out_features)
        if int(task.num_classes) != head:
            raise BundleError(
                f"task declares {task.num_classes} classes but the model head "
                f"is {head} wide"
            )
        return cls(
            model_class=name,
            model_kwargs=capture(model),
            model_state=model.state_dict(),
            feature_config=task.feature_config,
            num_classes=head,
            class_names=list(task.class_names),
            num_hops=task.num_hops,
            subgraph_mode=task.subgraph_mode,
            max_subgraph_nodes=task.max_subgraph_nodes,
            edge_attr_dim=task.edge_attr_dim,
            extraction_seed=extraction_seed,
            task_name=task.name if task_name is None else task_name,
            compute_dtype=compute_dtype,
        )

    def build_model(self) -> Module:
        """Re-instantiate the architecture and load the trained weights.

        ``load_state_dict`` is strict about keys and shapes, so a bundle
        whose spec and weights disagree fails loudly here rather than
        producing silently wrong scores.
        """
        model_cls = _model_classes()[self.model_class]
        kwargs = dict(self.model_kwargs)
        in_dim = kwargs.pop("in_dim")
        num_classes = kwargs.pop("num_classes")
        model = model_cls(in_dim, num_classes, rng=0, **kwargs)
        model.load_state_dict(self.model_state)
        model.eval()
        return model

    # ------------------------------------------------------------------ #
    # persistence (atomic meta-npz, like training checkpoints)
    # ------------------------------------------------------------------ #
    def save(self, path: PathLike):
        """Write the bundle to ``path`` atomically; returns the final path."""
        arrays = {
            f"model:{name}": np.asarray(arr)
            for name, arr in self.model_state.items()
        }
        fc_meta, fc_arrays = dump_feature_config(self.feature_config)
        arrays.update(fc_arrays)
        meta = {
            "version": BUNDLE_VERSION,
            "kind": "model-bundle",
            "model_class": self.model_class,
            "model_kwargs": self.model_kwargs,
            "num_classes": self.num_classes,
            "class_names": list(self.class_names),
            "feature_config": fc_meta,
            "extraction": {
                "num_hops": self.num_hops,
                "subgraph_mode": self.subgraph_mode,
                "max_subgraph_nodes": self.max_subgraph_nodes,
                "edge_attr_dim": self.edge_attr_dim,
                "seed": self.extraction_seed,
                "task_name": self.task_name,
            },
            "compute_dtype": self.compute_dtype,
        }
        return write_meta_npz(path, arrays, meta)

    @classmethod
    def load(cls, path: PathLike) -> "ModelBundle":
        """Read a bundle written by :meth:`save`."""
        try:
            arrays, meta = read_meta_npz(path)
        except ValueError as exc:
            raise BundleError(str(exc))
        if meta.get("kind") != "model-bundle":
            raise BundleError(f"{path} is not a model bundle")
        version = meta.get("version")
        if version != BUNDLE_VERSION:
            raise BundleError(
                f"bundle version {version} unsupported "
                f"(this build reads version {BUNDLE_VERSION})"
            )
        model_state = {
            key[len("model:"):]: arr
            for key, arr in arrays.items()
            if key.startswith("model:")
        }
        ext = meta["extraction"]
        return cls(
            model_class=meta["model_class"],
            model_kwargs=meta["model_kwargs"],
            model_state=model_state,
            feature_config=load_feature_config(meta["feature_config"], arrays),
            num_classes=int(meta["num_classes"]),
            class_names=list(meta["class_names"]),
            num_hops=int(ext["num_hops"]),
            subgraph_mode=ext["subgraph_mode"],
            max_subgraph_nodes=(
                None if ext["max_subgraph_nodes"] is None else int(ext["max_subgraph_nodes"])
            ),
            edge_attr_dim=int(ext["edge_attr_dim"]),
            extraction_seed=int(ext["seed"]),
            task_name=ext["task_name"],
            # Bundles written before the dtype policy load as float64.
            compute_dtype=str(meta.get("compute_dtype", "float64")),
        )
