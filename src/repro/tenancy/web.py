"""Tenant routing at the HTTP edge — the ``/t/`` URL namespace.

Invocation syntax, the paper's CGI contract with a tenant in front::

    /t/{tenant}/{macro-file}/{cmd}[?name=val&...]

:class:`TenantHost` plugs into the shared :class:`repro.http.router.
Router` (``router.tenants``), so the socket edge and the in-process
transport both speak it without knowing the details.  Per request it:

1. parses and validates the path (bad segment charset, ``..``,
   ``%2e%2e`` → rejected here, before any lookup);
2. resolves the tenant (unknown → 404);
3. authorizes against the tenant's visibility (private → owner only:
   401 with the Basic challenge when anonymous, 403 otherwise);
4. admits against the tenant's quota (exhausted → 429 with the unified
   ``Retry-After`` window-reset hint);
5. dispatches the tenant's own :class:`~repro.cgi.gateway.
   Db2WwwProgram` with ``REMOTE_USER`` and the tenant id riding the
   CGI environment (so app-server frames and subprocess runs carry
   both), negotiating JSON per request.
"""

from __future__ import annotations

import re
import traceback
from typing import Optional

from repro.cgi.environ import CgiEnvironment, cgi_headers
from repro.cgi.request import CgiRequest, CgiResponse
from repro.html.entities import escape_html
from repro.http.headers import Headers
from repro.http.message import HttpRequest, HttpResponse, html_response
from repro.http.status import reason_for
from repro.overload.retryafter import retry_after_header
from repro.security.tenants import TenantAccessPolicy
from repro.tenancy.registry import NAME_PATTERN, Tenant, TenantRegistry

TENANT_PREFIX = "/t/"

#: Macro-file and command segments: the macro library re-validates on
#: load, but rejecting at parse time keeps traversal probes out of the
#: request pipeline entirely (and out of per-tenant counters).
_SEGMENT_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")


def _segment_ok(segment: str) -> bool:
    return (bool(_SEGMENT_PATTERN.match(segment))
            and ".." not in segment)


def _page(status: int, detail: str,
          extra_headers: Optional[list[tuple[str, str]]] = None
          ) -> HttpResponse:
    reason = reason_for(status)
    response = html_response(
        f"<HTML><HEAD><TITLE>{status} {reason}</TITLE></HEAD>\n"
        f"<BODY><H1>{status} {reason}</H1>"
        f"<P>{escape_html(detail)}</P></BODY></HTML>\n",
        status=status)
    for name, value in extra_headers or ():
        response.headers.set(name, value)
    return response


class TenantHost:
    """Routes ``/t/...`` requests to their tenant's program."""

    def __init__(self, registry: TenantRegistry):
        self.registry = registry
        self.policy = TenantAccessPolicy(registry.authenticator)

    # ------------------------------------------------------------------

    def handle(self, router, request: HttpRequest, path: str,
               remote_addr: str, deadline=None) -> HttpResponse:
        """One tenant request; ``router`` supplies edge identity/tracing."""
        parsed = self._parse(path)
        if isinstance(parsed, HttpResponse):
            return parsed
        tenant_name, macro, command = parsed
        tenant = self.registry.get(tenant_name)
        if tenant is None:
            return _page(404, f"no tenant named {tenant_name!r}")
        decision = self.policy.authorize(
            tenant, request.headers.get("Authorization"))
        if not decision.allowed:
            tenant.record_denied()
            extra = None
            if decision.status == 401:
                extra = [("WWW-Authenticate",
                          f'Basic realm="{self.registry.authenticator.realm}"')]
            return _page(decision.status, decision.reason, extra)
        admitted, retry_after = tenant.quota.admit()
        if not admitted:
            tenant.record_throttled()
            return _page(
                429, f"tenant {tenant_name!r} is over quota",
                [("Retry-After", retry_after_header(retry_after))])
        tenant.record_request()
        environ = CgiEnvironment(
            request_method=request.method,
            script_name=TENANT_PREFIX.rstrip("/") + "/" + tenant_name,
            path_info=f"/{macro}/{command}",
            query_string=request.query,
            content_type=request.headers.get("Content-Type"),
            content_length=len(request.body),
            server_name=router.server_name,
            server_port=router.server_port,
            remote_addr=remote_addr,
            remote_user=decision.user or "",
            tenant=tenant_name,
            http_headers=cgi_headers(request.headers),
            trace_id=router.tracer.current_trace_id(),
        )
        cgi_request = CgiRequest(environ=environ, stdin=request.body,
                                 deadline=deadline)
        cgi_response = self._dispatch(tenant, cgi_request)
        headers = Headers(cgi_response.headers)
        headers.setdefault("Content-Type", "text/html")
        return HttpResponse(status=cgi_response.status,
                            headers=headers,
                            parts=cgi_response.parts,
                            body_iter=cgi_response.body_iter)

    # ------------------------------------------------------------------

    def _parse(self, path: str):
        """``/t/{tenant}/{macro}/{cmd}`` → the 3 segments, or an error.

        Validation happens on the raw segments *before* any registry or
        library lookup; traversal spellings that URL-decode into dots
        (``%2e%2e``) fail the charset check because ``%`` is simply not
        in the segment alphabet.
        """
        segments = path[len(TENANT_PREFIX):].split("/")
        if len(segments) != 3 or not all(segments):
            return _page(
                404, "expected a path of the form "
                     "/t/{tenant}/{macro-file}/{cmd}")
        for segment in segments:
            if not _segment_ok(segment):
                return _page(
                    400, f"invalid path segment {segment!r}: tenant, "
                         "macro and command names are single "
                         "[A-Za-z0-9_.-] segments without '..'")
        tenant_name, macro, command = segments
        if not NAME_PATTERN.match(tenant_name):
            return _page(400, f"invalid tenant name {tenant_name!r}")
        return tenant_name, macro, command

    def _dispatch(self, tenant: Tenant,
                  request: CgiRequest) -> CgiResponse:
        """Run the tenant's program with the gateway's crash barrier."""
        from repro.cgi.gateway import (
            CgiGateway,  # noqa: F401  (documentation anchor)
            error_response,
            forbidden_response,
            unavailable_response,
        )
        from repro.errors import (
            CircuitOpenError,
            DeadlineExceededError,
            PoolExhaustedError,
            ReadOnlySqlError,
            ReproError,
        )
        try:
            return tenant.program.run(request)
        except ReadOnlySqlError as exc:
            return forbidden_response(exc)
        except (CircuitOpenError, PoolExhaustedError) as exc:
            return unavailable_response(exc)
        except DeadlineExceededError as exc:
            return error_response(504, "Gateway Timeout",
                                  f"{type(exc).__name__}: {exc}")
        except ReproError as exc:
            return error_response(500, "Internal Server Error",
                                  f"{type(exc).__name__}: {exc}")
        except Exception:  # noqa: BLE001 - server survival trumps purity
            return error_response(500, "Internal Server Error",
                                  traceback.format_exc())
