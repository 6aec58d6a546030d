"""CGI/1.1 environment construction — the server side of Figure 4.

"When presented with an URL that contains the name of what is known as a
CGI application ..., a Web server that implements the CGI protocol will
start the CGI application as a separate process while passing to this new
process the user input that the server received from the Web client along
with the URL" (Section 2.3).  That passing happens through environment
variables; this module builds them exactly as NCSA httpd 1.5 did for the
fields our gateway uses, so the same request can be dispatched in-process
or to a real subprocess without differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

SERVER_SOFTWARE = "repro-httpd/1.0"
GATEWAY_INTERFACE = "CGI/1.1"
SERVER_PROTOCOL = "HTTP/1.0"


@dataclass
class CgiEnvironment:
    """The CGI meta-variables for one request.

    ``script_name`` is the URL path up to and including the CGI program
    (``/cgi-bin/db2www``); ``path_info`` is the "extra path" after it
    (``/urlquery.d2w/report``) — exactly the split Figure 4 labels
    ``PATH_INFO=/macro-file/cmd``.
    """

    request_method: str = "GET"
    script_name: str = ""
    path_info: str = ""
    query_string: str = ""
    content_type: str = ""
    content_length: int = 0
    server_name: str = "localhost"
    server_port: int = 80
    remote_addr: str = "127.0.0.1"
    #: CGI/1.1 ``REMOTE_USER``: the identity the server authenticated
    #: (HTTP Basic auth), empty for anonymous requests.  Set by
    #: :class:`repro.security.auth.ProtectedProgram` and the tenancy
    #: layer; rides the environment across subprocess and app-server
    #: dispatch like every other meta-variable.
    remote_user: str = ""
    #: The tenant a multi-tenant request was routed to (see
    #: :mod:`repro.tenancy`).  Not a CGI/1.1 meta-variable — it rides as
    #: ``REPRO_TENANT`` the way ``REPRO_TRACE_ID`` does, so app-server
    #: workers and subprocess runs know which tenant they serve.
    tenant: str = ""
    http_headers: dict[str, str] = field(default_factory=dict)
    #: End-to-end trace id (see :mod:`repro.obs.trace`).  Not a CGI/1.1
    #: meta-variable — it rides the environment as ``REPRO_TRACE_ID``
    #: the way servers have always smuggled extras to CGI programs — so
    #: subprocess runs and app-server workers join the caller's trace.
    trace_id: str = ""

    def to_dict(self) -> dict[str, str]:
        """Render as the flat string environment a subprocess receives."""
        env = {
            "GATEWAY_INTERFACE": GATEWAY_INTERFACE,
            "SERVER_SOFTWARE": SERVER_SOFTWARE,
            "SERVER_PROTOCOL": SERVER_PROTOCOL,
            "SERVER_NAME": self.server_name,
            "SERVER_PORT": str(self.server_port),
            "REQUEST_METHOD": self.request_method,
            "SCRIPT_NAME": self.script_name,
            "PATH_INFO": self.path_info,
            "QUERY_STRING": self.query_string,
            "REMOTE_ADDR": self.remote_addr,
        }
        if self.content_type:
            env["CONTENT_TYPE"] = self.content_type
        if self.content_length:
            env["CONTENT_LENGTH"] = str(self.content_length)
        if self.remote_user:
            env["REMOTE_USER"] = self.remote_user
        if self.tenant:
            env["REPRO_TENANT"] = self.tenant
        if self.trace_id:
            env["REPRO_TRACE_ID"] = self.trace_id
        for name, value in self.http_headers.items():
            env["HTTP_" + name.upper().replace("-", "_")] = value
        return env

    @classmethod
    def from_dict(cls, env: dict[str, str]) -> "CgiEnvironment":
        """Reconstruct from a process environment (the CGI program side)."""
        headers = cgi_headers((key[5:], value) for key, value in env.items()
                              if key.startswith("HTTP_"))
        return cls(
            request_method=env.get("REQUEST_METHOD", "GET"),
            script_name=env.get("SCRIPT_NAME", ""),
            path_info=env.get("PATH_INFO", ""),
            query_string=env.get("QUERY_STRING", ""),
            content_type=env.get("CONTENT_TYPE", ""),
            content_length=int(env.get("CONTENT_LENGTH", "0") or 0),
            server_name=env.get("SERVER_NAME", "localhost"),
            server_port=int(env.get("SERVER_PORT", "80") or 80),
            remote_addr=env.get("REMOTE_ADDR", "127.0.0.1"),
            remote_user=env.get("REMOTE_USER", ""),
            tenant=env.get("REPRO_TENANT", ""),
            http_headers=headers,
            trace_id=env.get("REPRO_TRACE_ID", ""),
        )


def cgi_headers(items: Iterable[tuple[str, str]]) -> dict[str, str]:
    """The request headers as a CGI program sees them.

    Each name is spelled the way a trip through the CGI environment
    spells it (``HTTP_ACCEPT_LANGUAGE`` back to ``Accept-Language``), so
    ``accept-language``, ``ACCEPT-LANGUAGE`` and ``Accept_Language``
    are one header.  A repeated name keeps its last value, as one
    environment variable would.  Build ``http_headers`` with this
    wherever an environment is made: the in-process program and an
    app-server worker, which receives the dict verbatim, then look
    headers up in one dict.
    """
    return {name.replace("_", "-").title(): value for name, value in items}


def split_cgi_path(url_path: str,
                   cgi_prefix: str = "/cgi-bin/") -> tuple[str, str, str]:
    """Split a URL path into ``(script_name, program, path_info)``.

    ``/cgi-bin/db2www/urlquery.d2w/report`` →
    ``("/cgi-bin/db2www", "db2www", "/urlquery.d2w/report")``.

    Raises :class:`ValueError` when the path is not under the CGI prefix.
    """
    if not url_path.startswith(cgi_prefix):
        raise ValueError(f"{url_path!r} is not under {cgi_prefix!r}")
    remainder = url_path[len(cgi_prefix):]
    program, slash, extra = remainder.partition("/")
    if not program:
        raise ValueError(f"no CGI program named in {url_path!r}")
    script_name = cgi_prefix + program
    path_info = slash + extra if slash else ""
    return script_name, program, path_info
