"""Pure, Ray-free kernels: the semantic core of the engine.

Every function here is deterministic and operates on plain Python
dicts/lists or one document's ``LineTable`` (a single row of the Dataset).
They are the byte-identity contract: the Ray pipeline and the
single-process oracle (pipelines/oracle.py) call exactly these.
"""

from credit_ocr_backend_ray.functions.lines import (  # noqa: F401
    LineTable, box_center, box_height,
)
from credit_ocr_backend_ray.functions.layout import flatten_layout  # noqa: F401
from credit_ocr_backend_ray.functions.pairing import pair_label_values  # noqa: F401
from credit_ocr_backend_ray.functions.normalize import normalize_lines  # noqa: F401
from credit_ocr_backend_ray.functions.values import clean_value  # noqa: F401
from credit_ocr_backend_ray.functions.validate import (  # noqa: F401
    validate_field, validate_fields,
)
from credit_ocr_backend_ray.functions.fields import map_fields  # noqa: F401
