"""Multi-tenant hosting: many isolated macro applications on one edge.

See :mod:`repro.tenancy.registry` for the tenant model (ownership,
visibility, read-only, quotas), :mod:`repro.tenancy.web` for the
``/t/{tenant}/{macro}/{cmd}`` routing served through the shared router, and
:mod:`repro.tenancy.jsonapi` for the content-negotiated JSON API.
"""

from repro.tenancy.jsonapi import (
    JSON_CONTENT_TYPE,
    JsonRowRenderer,
    negotiated_renderer,
    wants_json,
)
from repro.tenancy.registry import (
    Tenant,
    TenantQuota,
    TenantRegistry,
    valid_tenant_name,
)
from repro.tenancy.web import TENANT_PREFIX, TenantHost

__all__ = [
    "JSON_CONTENT_TYPE",
    "JsonRowRenderer",
    "negotiated_renderer",
    "wants_json",
    "Tenant",
    "TenantQuota",
    "TenantRegistry",
    "valid_tenant_name",
    "TENANT_PREFIX",
    "TenantHost",
]
