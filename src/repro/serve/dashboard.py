"""The embedded single-page dashboard served at ``/`` by ``repro serve``.

One self-contained HTML document — no external scripts, stylesheets, fonts,
or CDNs — so the dashboard works on an air-gapped experiment host exactly
like the rest of the simulator.  All data arrives through the JSON API
(:mod:`repro.serve.server`); the page polls the list/detail endpoints every
two seconds while any experiment is still ``running``, which is what makes
an in-flight :class:`~repro.parallel.ParallelRunner` fleet watchable live.

Palette note: series and status colors follow a validated
colorblind-safe ordering (categorical slots in fixed order, status colors
reserved for run states and always paired with a text label); light and
dark schemes are both defined and follow the viewer's OS preference.
"""

from __future__ import annotations

PAGE_HTML = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>repro experiments</title>
<style>
:root {
  color-scheme: light;
  --surface: #fcfcfb; --panel: #f3f2ef; --border: #dddcd7;
  --text: #0b0b0b; --text-2: #52514e;
  --s1: #2a78d6; --s2: #eb6834; --s3: #1baf7a; --s4: #eda100;
  --s5: #e87ba4; --s6: #008300; --s7: #4a3aa7; --s8: #e34948;
  --good: #0ca30c; --warn: #fab219; --crit: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root {
    color-scheme: dark;
    --surface: #1a1a19; --panel: #242422; --border: #3a3a37;
    --text: #ffffff; --text-2: #c3c2b7;
    --s1: #3987e5; --s2: #d95926; --s3: #199e70; --s4: #c98500;
    --s5: #d55181; --s6: #008300; --s7: #9085e9; --s8: #e66767;
  }
}
* { box-sizing: border-box; }
body { margin: 0; background: var(--surface); color: var(--text);
       font: 14px/1.45 ui-sans-serif, system-ui, sans-serif; }
header { padding: 10px 18px; border-bottom: 1px solid var(--border);
         display: flex; gap: 14px; align-items: baseline; }
header h1 { font-size: 16px; margin: 0; }
header .meta { color: var(--text-2); font-size: 12px; }
main { display: grid; grid-template-columns: minmax(330px, 420px) 1fr;
       gap: 0; min-height: calc(100vh - 44px); }
#list { border-right: 1px solid var(--border); padding: 12px;
        overflow-y: auto; }
#detail { padding: 14px 18px; overflow-y: auto; }
table { border-collapse: collapse; width: 100%; font-size: 13px; }
th { text-align: left; color: var(--text-2); font-weight: 600;
     border-bottom: 1px solid var(--border); padding: 4px 8px 4px 0;
     white-space: nowrap; }
td { padding: 4px 8px 4px 0; border-bottom: 1px solid var(--border);
     vertical-align: top; }
tr.sel td { background: var(--panel); }
tr.click { cursor: pointer; }
.num { text-align: right; font-variant-numeric: tabular-nums; }
.status { display: inline-flex; align-items: center; gap: 5px;
          white-space: nowrap; }
.dot { width: 8px; height: 8px; border-radius: 50%; display: inline-block; }
.status.running .dot { background: var(--s1); }
.status.complete .dot { background: var(--good); }
.status.failed .dot { background: var(--crit); }
.status.stalled .dot { background: var(--warn); }
.bar { height: 6px; background: var(--panel); border-radius: 3px;
       overflow: hidden; margin-top: 3px; }
.bar > i { display: block; height: 100%; background: var(--s1);
           border-radius: 3px; }
h2 { font-size: 15px; margin: 18px 0 6px; }
h2:first-child { margin-top: 2px; }
.cards { display: flex; flex-wrap: wrap; gap: 10px; margin: 8px 0; }
.card { background: var(--panel); border: 1px solid var(--border);
        border-radius: 6px; padding: 8px 12px; min-width: 110px; }
.card b { display: block; font-size: 17px;
          font-variant-numeric: tabular-nums; }
.card span { color: var(--text-2); font-size: 12px; }
.stack { display: flex; height: 14px; border-radius: 4px; overflow: hidden;
         background: var(--panel); }
.stack > i { display: block; height: 100%;
             border-right: 2px solid var(--surface); }
.stack > i:last-child { border-right: none; }
.legend { display: flex; flex-wrap: wrap; gap: 12px; margin: 5px 0 10px;
          font-size: 12px; color: var(--text-2); }
.legend .dot { width: 9px; height: 9px; border-radius: 2px; }
.tl { position: relative; height: 16px; background: var(--panel);
      border-radius: 3px; }
.tl .span { position: absolute; top: 5px; height: 6px; background: var(--s1);
            border-radius: 3px; }
.tl .mark { position: absolute; top: 2px; width: 4px; height: 12px;
            border-radius: 2px; background: var(--s2);
            box-shadow: 0 0 0 2px var(--surface); }
.muted { color: var(--text-2); }
button, select { background: var(--panel); color: var(--text);
  border: 1px solid var(--border); border-radius: 5px; padding: 3px 10px;
  font: inherit; cursor: pointer; }
button:hover { border-color: var(--s1); }
.controls { display: flex; gap: 8px; align-items: center; margin: 6px 0; }
pre { background: var(--panel); border: 1px solid var(--border);
      border-radius: 6px; padding: 8px 10px; overflow-x: auto;
      font-size: 12px; }
.crumbs { font-size: 12px; color: var(--text-2); margin-bottom: 8px; }
.crumbs a { color: var(--s1); cursor: pointer; text-decoration: none; }
.fp { font-family: ui-monospace, monospace; font-size: 11px; }
.ok-fp { color: var(--good); } .bad-fp { color: var(--crit); }
</style>
</head>
<body>
<header>
  <h1>repro experiments</h1>
  <span class="meta" id="meta">loading…</span>
  <span class="meta" id="poll"></span>
</header>
<main>
  <div id="list"></div>
  <div id="detail"><p class="muted">Select an experiment.</p></div>
</main>
<script>
"use strict";
const $ = (sel, el) => (el || document).querySelector(sel);
const esc = s => String(s).replace(/[&<>"]/g,
  c => ({"&":"&amp;","<":"&lt;",">":"&gt;",'"':"&quot;"}[c]));
const fmt = (x, d) => x == null ? "–"
  : Number(x).toLocaleString("en-US", {maximumFractionDigits: d ?? 1});
const PHASE_SLOTS = ["--s1","--s2","--s3","--s4","--s5","--s6","--s7","--s8"];
let state = { experiments: [], selected: null, run: null, diffWith: null };

async function api(path) {
  const res = await fetch(path);
  if (!res.ok) throw new Error(path + " -> " + res.status);
  return res.json();
}

function statusCell(st) {
  return `<span class="status ${esc(st)}"><span class="dot"></span>${esc(st)}</span>`;
}

function renderList() {
  const rows = state.experiments.map(e => {
    const pct = e.total_runs ? (100 * e.done_runs / e.total_runs) : 0;
    return `<tr class="click ${state.selected === e.id ? "sel" : ""}"
        onclick="selectExperiment(${e.id})">
      <td class="num">${e.id}</td>
      <td>${esc(e.name)}<div class="bar"><i style="width:${pct}%"></i></div></td>
      <td>${esc(e.kind)}</td>
      <td>${statusCell(e.status)}</td>
      <td class="num">${e.done_runs}/${e.total_runs}</td>
    </tr>`;
  }).join("");
  $("#list").innerHTML = `<table>
    <thead><tr><th>id</th><th>experiment</th><th>kind</th>
    <th>status</th><th class="num">runs</th></tr></thead>
    <tbody>${rows || ""}</tbody></table>` +
    (rows ? "" : '<p class="muted">No experiments recorded yet.</p>');
}

function healthCell(r) {
  // Per-run anomaly strip: "–" when the run was not health-monitored,
  // green "healthy" at zero anomalies, warn/crit count otherwise.
  const h = r.attachments.health;
  if (!h) return '<span class="muted">–</span>';
  if (!h.anomaly_count)
    return '<span class="status complete"><span class="dot"></span>healthy</span>';
  const crit = h.events.some(e => e.severity === "critical");
  return `<span class="status ${crit ? "failed" : "stalled"}">` +
    `<span class="dot"></span>${h.anomaly_count}</span>`;
}

function runRow(r) {
  const lat = r.status === "failed"
    ? `<span class="status failed"><span class="dot"></span>failed</span>`
    : fmt(r.latency_per_decision) + " ms";
  const flag = r.stalled ? ' <span class="status stalled"><span class="dot">' +
    "</span>stalled</span>" : "";
  return `<tr class="click" onclick="selectRun(${r.id})">
    <td class="num">${r.run_index}</td>
    <td>${esc(r.label || "seed " + r.seed)}</td>
    <td class="num">${lat}${flag}</td>
    <td class="num">${fmt(r.messages_per_decision)}</td>
    <td class="num">${fmt(r.events_processed, 0)}</td>
    <td>${healthCell(r)}</td>
    <td class="fp">${r.fingerprint ? esc(r.fingerprint.slice(0, 12)) : "–"}</td>
    <td>${r.trace_path ? "trace" : ""}</td>
  </tr>`;
}

async function renderDetail() {
  if (state.selected == null) return;
  const data = await api("/api/experiments/" + state.selected);
  let health = null;
  try { health = await api("/api/experiments/" + state.selected + "/health"); }
  catch (err) { /* health rollup is best-effort */ }
  const e = data.experiment;
  const others = state.experiments.filter(x => x.id !== e.id);
  const diffSel = others.length ? `<span class="controls">
      <label class="muted">diff against</label>
      <select id="diffsel">${others.map(o =>
        `<option value="${o.id}">#${o.id} ${esc(o.name)}</option>`).join("")}
      </select>
      <button onclick="showDiff()">diff fingerprints</button></span>` : "";
  const arts = (data.artifacts || []).map(a =>
    `<li>${esc(a.kind)} ${esc(a.name)} ${a.path ? esc(a.path) : ""}</li>`
  ).join("");
  $("#detail").innerHTML = `
    <div class="crumbs"><a onclick="deselect()">experiments</a> /
      #${e.id} ${esc(e.name)}</div>
    <div class="cards">
      <div class="card"><b>${statusCell(e.status)}</b><span>status</span></div>
      <div class="card"><b>${e.done_runs}/${e.total_runs}</b><span>runs done</span></div>
      <div class="card"><b>${e.failed_runs}</b><span>failed</span></div>
      <div class="card"><b>${e.stalled_runs}</b><span>stalled</span></div>
      <div class="card"><b>${esc(e.config.protocol || "?")}</b><span>protocol</span></div>
    </div>
    ${diffSel}
    <h2>Runs</h2>
    <table><thead><tr><th class="num">#</th><th>run</th>
      <th class="num">latency/decision</th><th class="num">msgs/dec</th>
      <th class="num">events</th><th>health</th><th>fingerprint</th>
      <th></th></tr></thead>
      <tbody>${data.runs.map(runRow).join("")}</tbody></table>
    ${healthView(health)}
    ${saturationView(data.runs)}
    <div id="runpanel"></div>`;
}

function anomalyRows(anomalies, withRun) {
  return (anomalies || []).slice(0, 40).map(a => {
    const who = [(a.nodes || []).length ? "n" + a.nodes.join(",") : "",
                 (a.clients || []).length ? "c" + a.clients.join(",") : ""]
      .filter(Boolean).join(" ") || "–";
    const sev = `<span class="status ${a.severity === "critical"
      ? "failed" : "stalled"}"><span class="dot"></span>${esc(a.severity)}</span>`;
    return `<tr><td class="num">${fmt(a.time, 0)} ms</td>` +
      (withRun ? `<td class="num">${a.run_index}</td>` : "") +
      `<td>${esc(a.detector)}</td><td>${sev}</td><td>${esc(who)}</td></tr>`;
  }).join("");
}

function healthView(h) {
  // Fleet health panel: live anomaly timeline merged across the
  // experiment's health-monitored runs.  Empty for unmonitored fleets.
  if (!h || !h.monitored_runs) return "";
  const dets = Object.entries(h.detectors || {}).map(([k, v]) =>
    `<span class="status"><span class="dot" style="background:var(--warn)">` +
    `</span>${esc(k)}: ${v}</span>`).join("");
  const rows = anomalyRows(h.anomalies, true);
  return `<h2>Run health <span class="muted">(streaming anomaly detectors
    across ${h.monitored_runs} monitored runs)</span></h2>
    <div class="cards">
      <div class="card"><b>${h.anomaly_total}</b><span>anomalies</span></div>
      <div class="card"><b>${h.min_fairness == null ? "–"
        : fmt(h.min_fairness, 2)}</b><span>min fairness</span></div>
    </div>
    ${dets ? `<div class="legend">${dets}</div>` : ""}
    ${rows ? `<table><thead><tr><th class="num">time</th>
      <th class="num">run</th><th>detector</th><th>severity</th>
      <th>implicated</th></tr></thead><tbody>${rows}</tbody></table>`
      : '<p class="muted">No anomalies detected.</p>'}`;
}

function saturationView(runs) {
  // Throughput/saturation view: one bar per workload run (committed tx/s
  // against the fleet maximum), with request counts, per-request latency
  // percentiles, and the saturation flag.  Empty for non-workload fleets.
  const wl = (runs || []).filter(r => r.attachments.workload);
  if (!wl.length) return "";
  const tmax = Math.max(...wl.map(r => r.attachments.workload.committed_tx_s)) || 1;
  const rows = wl.map(r => {
    const w = r.attachments.workload;
    const sat = w.saturated ? ' <span class="status stalled">' +
      '<span class="dot"></span>saturated</span>' : "";
    return `<tr class="click" onclick="selectRun(${r.id})">
      <td class="num">${r.run_index}</td>
      <td>${esc(r.label || "seed " + r.seed)}</td>
      <td style="min-width:200px"><div class="bar">
        <i style="width:${100 * w.committed_tx_s / tmax}%"></i></div></td>
      <td class="num">${fmt(w.committed_tx_s)}${sat}</td>
      <td class="num">${fmt(w.decided, 0)}/${fmt(w.submitted, 0)}</td>
      <td class="num">${fmt(w.latency_p50_ms, 0)} ms</td>
      <td class="num">${fmt(w.latency_p99_ms, 0)} ms</td>
      <td class="num">${fmt(w.max_queue_depth, 0)}</td>
    </tr>`;
  }).join("");
  return `<h2>Throughput / saturation <span class="muted">(committed tx/s
    per run; flagged runs could not drain the offered load)</span></h2>
    <table><thead><tr><th class="num">#</th><th>run</th><th>tx/s</th>
    <th class="num">committed</th><th class="num">requests</th>
    <th class="num">req p50</th><th class="num">req p99</th>
    <th class="num">queue max</th></tr></thead>
    <tbody>${rows}</tbody></table>`;
}

function phaseChart(phases) {
  if (!phases || !phases.per_view || !phases.per_view.length) return "";
  const names = [];
  for (const v of phases.per_view)
    for (const p of Object.keys(v.durations))
      if (!names.includes(p)) names.push(p);
  const slot = p => `var(${PHASE_SLOTS[names.indexOf(p) % 8]})`;
  const legend = `<div class="legend">${names.map(p =>
    `<span class="status"><span class="dot" style="background:${slot(p)}">` +
    `</span>${esc(p)}</span>`).join("")}</div>`;
  const rows = phases.per_view.slice(0, 40).map(v => {
    const total = Object.values(v.durations).reduce((a, b) => a + b, 0) || 1;
    const segs = Object.entries(v.durations).map(([p, ms]) =>
      `<i style="width:${100 * ms / total}%;background:${slot(p)}"
         title="${esc(p)}: ${fmt(ms)} ms"></i>`).join("");
    return `<tr><td class="num">${esc(JSON.stringify(v.view))}</td>
      <td class="num">${v.node}</td>
      <td style="min-width:240px"><div class="stack">${segs}</div></td>
      <td class="num">${fmt(total)} ms</td></tr>`;
  }).join("");
  return `<h2>Per-view phase breakdown</h2>${legend}
    <table><thead><tr><th class="num">view</th><th class="num">node</th>
    <th>time in phase</th><th class="num">view total</th></tr></thead>
    <tbody>${rows}</tbody></table>`;
}

function quorumChart(quorums) {
  if (!quorums || !quorums.length) return "";
  const tmax = Math.max(...quorums.map(q => q.closed_at || 0)) || 1;
  const rows = quorums.slice(0, 40).map(q => {
    const left = 100 * (q.first_arrival || 0) / tmax;
    const width = Math.max(0.8, 100 * ((q.closed_at || 0) -
      (q.first_arrival || 0)) / tmax);
    return `<tr><td class="num">${q.slot}</td><td class="num">${q.node}</td>
      <td style="min-width:260px"><div class="tl">
        <span class="span" style="left:${left}%;width:${width}%"></span>
        <span class="mark" style="left:${Math.min(99, left + width)}%"
          title="quorum closed at ${fmt(q.closed_at)} ms"></span>
      </div></td>
      <td class="num">${fmt(q.closed_at)} ms</td>
      <td class="num">${q.straggler == null ? "–" : q.straggler}</td>
      <td class="num">${q.wasted == null ? "–" : q.wasted}</td></tr>`;
  }).join("");
  return `<h2>Quorum timelines <span class="muted">(bar: first vote →
    quorum close; straggler & wasted post-quorum arrivals per decision)
    </span></h2>
    <table><thead><tr><th class="num">slot</th><th class="num">node</th>
    <th>timeline</th><th class="num">closed</th>
    <th class="num">straggler</th><th class="num">wasted</th></tr></thead>
    <tbody>${rows}</tbody></table>`;
}

function criticalPaths(paths) {
  if (!paths || !paths.length) return "";
  const rows = paths.slice(0, 20).map(p =>
    `<tr><td class="num">${p.slot}</td><td class="num">${p.node}</td>
     <td class="num">${p.hops}</td><td class="num">${fmt(p.duration)} ms</td>
     <td class="muted">${esc((p.steps || []).map(s => s.label).join(" → "))}
     </td></tr>`).join("");
  return `<h2>Critical paths</h2>
    <table><thead><tr><th class="num">slot</th><th class="num">node</th>
    <th class="num">hops</th><th class="num">duration</th><th>chain</th>
    </tr></thead><tbody>${rows}</tbody></table>`;
}

async function selectRun(runId) {
  state.run = runId;
  const data = await api("/api/runs/" + runId);
  const r = data.run;
  let html = `<h2>Run #${r.run_index}
    <span class="muted">(store id ${r.id}, seed ${r.seed})</span></h2>
    <div class="cards">
      <div class="card"><b>${fmt(r.latency_per_decision)} ms</b>
        <span>latency/decision</span></div>
      <div class="card"><b>${fmt(r.messages, 0)}</b><span>messages</span></div>
      <div class="card"><b>${fmt(r.events_processed, 0)}</b>
        <span>events</span></div>
      <div class="card"><b>${r.max_view == null ? "–" : r.max_view}</b>
        <span>max view</span></div>
    </div>`;
  const a = r.attachments;
  if (a.workload) {
    const w = a.workload;
    html += `<h2>Workload</h2><div class="cards">
      <div class="card"><b>${fmt(w.committed_tx_s)}</b>
        <span>committed tx/s</span></div>
      <div class="card"><b>${fmt(w.decided, 0)}/${fmt(w.submitted, 0)}</b>
        <span>requests decided</span></div>
      <div class="card"><b>${fmt(w.latency_p50_ms, 0)} ms</b>
        <span>request p50</span></div>
      <div class="card"><b>${fmt(w.latency_p99_ms, 0)} ms</b>
        <span>request p99</span></div>
      <div class="card"><b>${fmt(w.max_queue_depth, 0)}</b>
        <span>queue max</span></div>
      <div class="card"><b>${w.saturated ? "yes" : "no"}</b>
        <span>saturated</span></div>
    </div>`;
  }
  if (a.health) {
    const h = a.health;
    const rows = anomalyRows(h.events, false);
    html += `<h2>Health <span class="muted">(${fmt(h.window_ms, 0)} ms
      detector windows)</span></h2>
      <div class="cards">
        <div class="card"><b>${h.anomaly_count}</b><span>anomalies</span></div>
        <div class="card"><b>${h.windows}</b><span>windows</span></div>
        <div class="card"><b>${h.min_fairness == null ? "–"
          : fmt(h.min_fairness, 2)}</b><span>min fairness</span></div>
      </div>` +
      (rows ? `<table><thead><tr><th class="num">time</th><th>detector</th>
        <th>severity</th><th>implicated</th></tr></thead>
        <tbody>${rows}</tbody></table>` : "");
  }
  if (r.failure) html += `<pre>${esc(JSON.stringify(r.failure, null, 1))}</pre>`;
  if (a.stall) html += `<p class="status stalled"><span class="dot"></span>
    stalled: ${esc(a.stall.reason)} at ${fmt(a.stall.detected_at)} ms</p>`;
  if (r.trace_path) {
    html += `<p class="muted">trace: ${esc(r.trace_path)}</p>`;
    try {
      const analysis = await api("/api/runs/" + runId + "/analysis");
      if (analysis.available) {
        html += quorumChart(analysis.quorums);
        html += phaseChart(analysis.phases);
        html += criticalPaths(analysis.critical_paths);
      } else {
        html += `<p class="muted">analysis unavailable:
          ${esc(analysis.reason || "?")}</p>`;
      }
    } catch (err) {
      html += `<p class="muted">analysis failed: ${esc(err.message)}</p>`;
    }
  } else {
    html += `<p class="muted">No trace recorded for this run
      (re-run with --trace-out to enable drill-down).</p>`;
  }
  $("#runpanel").innerHTML = html;
}

async function showDiff() {
  const other = $("#diffsel").value;
  const d = await api(`/api/experiments/${state.selected}/diff/${other}`);
  const rows = d.rows.map(row => `<tr>
    <td class="num">${row.run_index}</td>
    <td class="fp ${row.match ? "ok-fp" : "bad-fp"}">
      ${row.a ? esc(row.a.slice(0, 16)) : "missing"}</td>
    <td class="fp ${row.match ? "ok-fp" : "bad-fp"}">
      ${row.b ? esc(row.b.slice(0, 16)) : "missing"}</td>
    <td>${row.match ? "match" : "DIFFERS"}</td>
    <td class="num">${fmt(row.a_latency)}</td>
    <td class="num">${fmt(row.b_latency)}</td></tr>`).join("");
  $("#runpanel").innerHTML = `
    <h2>Fingerprint diff: #${d.a.id} vs #${d.b.id}
      <span class="muted">${d.identical ? "identical" : "differs"}</span></h2>
    <table><thead><tr><th class="num">#</th><th>${esc(d.a.name)}</th>
    <th>${esc(d.b.name)}</th><th></th>
    <th class="num">lat A</th><th class="num">lat B</th></tr></thead>
    <tbody>${rows}</tbody></table>`;
}

function selectExperiment(id) {
  state.selected = id; state.run = null;
  renderList(); renderDetail().catch(console.error);
}
function deselect() {
  state.selected = null;
  $("#detail").innerHTML = '<p class="muted">Select an experiment.</p>';
  renderList();
}

async function refresh() {
  const data = await api("/api/experiments");
  state.experiments = data.experiments;
  const meta = await api("/api/meta");
  $("#meta").textContent = `${meta.store} · schema v${meta.schema_version} · ` +
    `${data.experiments.length} experiments`;
  renderList();
  const anyRunning = data.experiments.some(e => e.status === "running");
  $("#poll").textContent = anyRunning ? "· polling (fleet in flight)" : "";
  if (state.selected != null && state.run == null) await renderDetail();
  return anyRunning;
}

async function loop() {
  let running = false;
  try { running = await refresh(); }
  catch (err) { $("#meta").textContent = "store unreachable: " + err.message; }
  setTimeout(loop, running ? 2000 : 5000);
}
loop();
</script>
</body>
</html>
"""
