//! Scenario configuration from YAML — the `edgesim` CLI's input format.
//!
//! ```yaml
//! seed: 7
//! service: Nginx            # Asm | Nginx | ResNet | Nginx+Py | Wasm-Web
//! scheduler: nearest-waiting # | nearest-ready-first | hybrid | least-loaded
//! backends: [docker, k8s]    # | wasm
//! phase: created             # cold | images-cached | created | running
//! private_registry: false
//! clients: 20
//! predictor: none            # | popularity | oracle
//! controller:
//!   probe_interval_ms: 50
//!   switch_idle_timeout_s: 10
//!   memory_idle_timeout_s: 600
//!   scale_down_idle: false
//!   deploy_retries: 2
//!   autoscale_flows_per_replica: 8
//! workload:                  # optional workload-engine block (see below)
//!   model: flash-crowd       # edgesim workloads lists the models
//!   handovers_per_client: 2
//! sites:                     # optional hierarchical layout
//!   - name: near-edge
//!     class: pi              # pi | egs
//!     latency_ms: 0.3
//!     nodes: 8
//!     backend: docker
//!     cpu_millis: 4000       # optional; omitted = unlimited
//!     memory_mib: 4096       # optional; omitted = unlimited
//!     max_replicas: 16       # optional; omitted = unlimited
//!     labels: [gpu]          # optional placement labels
//! ```
//!
//! The `scheduler` value is any name or alias the
//! [`edgectl::SchedulerRegistry`] knows (`edgesim schedulers` lists them).

use cluster::{ClusterKind, SiteCapacity};
use edgectl::{SchedulerRegistry, SchedulerSpec};
use simcore::SimDuration;
use simnet::openflow::PortId;
use simnet::{Action, FlowMatch, FlowSpec, IpAddr, IpNet, Protocol};
use workload::{ServiceKind, WorkloadRegistry};
use yamlite::Yaml;

use crate::scenario::{MeshParams, PhaseSetup, PredictorKind, ScenarioConfig};
use crate::topology::{NodeClass, SiteSpec};

/// Parse a scenario from a YAML document. Unknown keys are rejected so typos
/// fail loudly.
pub fn scenario_from_yaml(doc: &Yaml) -> Result<ScenarioConfig, String> {
    let mut cfg = ScenarioConfig::default();
    let Some(map) = doc.as_map() else {
        return Err("scenario must be a YAML mapping".into());
    };
    for (key, value) in map {
        match key.as_str() {
            "seed" => cfg.seed = as_u64(value, key)?,
            "service" => cfg.service = parse_service(value, key)?,
            "scheduler" => cfg.scheduler = parse_scheduler(value, key)?,
            "backends" => {
                let seq = value
                    .as_seq()
                    .ok_or_else(|| format!("`{key}` must be a sequence"))?;
                cfg.backends = seq
                    .iter()
                    .map(|v| parse_backend(v, key))
                    .collect::<Result<_, _>>()?;
            }
            "phase" => cfg.phase_setup = parse_phase(value, key)?,
            "private_registry" => cfg.private_registry = as_bool(value, key)?,
            "clients" => cfg.clients = as_u64(value, key)? as usize,
            "predictor" => cfg.predictor = parse_predictor(value, key)?,
            "predict_interval_s" => {
                cfg.predict_interval = SimDuration::from_secs_f64(as_f64(value, key)?)
            }
            "prewarm_sites" => {
                let seq = value
                    .as_seq()
                    .ok_or_else(|| format!("`{key}` must be a sequence"))?;
                cfg.prewarm_sites = Some(
                    seq.iter()
                        .map(|v| as_u64(v, key).map(|n| n as usize))
                        .collect::<Result<_, _>>()?,
                );
            }
            "controller" => apply_controller(value, &mut cfg)?,
            "mesh" => apply_mesh(value, &mut cfg)?,
            "workload" => apply_workload(value, &mut cfg)?,
            "seed_flows" => {
                let seq = value
                    .as_seq()
                    .ok_or_else(|| format!("`{key}` must be a sequence"))?;
                cfg.seed_flows = seq.iter().map(parse_seed_flow).collect::<Result<_, _>>()?;
            }
            "sites" => {
                let seq = value
                    .as_seq()
                    .ok_or_else(|| format!("`{key}` must be a sequence"))?;
                cfg.sites = seq.iter().map(parse_site).collect::<Result<_, _>>()?;
            }
            other => return Err(format!("unknown scenario key `{other}`")),
        }
    }
    check_seed_flow_ports(&cfg)?;
    Ok(cfg)
}

/// Every `output:<port>` of a seed flow must name a port of the ingress
/// switch — cloud, sites, then clients — which only the whole file fixes.
fn check_seed_flow_ports(cfg: &ScenarioConfig) -> Result<(), String> {
    let sites = cfg.resolved_sites().len();
    let ports = 1 + sites + cfg.clients;
    for (i, spec) in cfg.seed_flows.iter().enumerate() {
        for action in &spec.actions {
            if let Action::Output(PortId(port)) = *action {
                if port >= ports {
                    return Err(format!(
                        "seed flow {i}: `output:{port}` names no switch port \
                         (ports 0-{}: cloud, {sites} sites, {} clients)",
                        ports - 1,
                        cfg.clients
                    ));
                }
            }
        }
    }
    Ok(())
}

fn apply_controller(value: &Yaml, cfg: &mut ScenarioConfig) -> Result<(), String> {
    let Some(map) = value.as_map() else {
        return Err("`controller` must be a mapping".into());
    };
    for (key, v) in map {
        match key.as_str() {
            "probe_interval_ms" => {
                cfg.controller.probe_interval = SimDuration::from_millis_f64(as_f64(v, key)?)
            }
            "probe_timeout_s" => {
                cfg.controller.probe_timeout = SimDuration::from_secs_f64(as_f64(v, key)?)
            }
            "switch_idle_timeout_s" => cfg.controller.switch_idle_timeout = as_timeout(v, key)?,
            "memory_idle_timeout_s" => cfg.controller.memory_idle_timeout = as_timeout(v, key)?,
            "scale_down_idle" => cfg.controller.scale_down_idle = as_bool(v, key)?,
            "deploy_retries" => cfg.controller.deploy_retries = as_u64(v, key)? as u32,
            "retry_backoff_ms" => {
                cfg.controller.retry_backoff = SimDuration::from_millis_f64(as_f64(v, key)?)
            }
            "autoscale_flows_per_replica" => {
                cfg.controller.autoscale_flows_per_replica = Some(as_u64(v, key)? as u32)
            }
            "remove_after_s" => {
                cfg.controller.remove_after = Some(SimDuration::from_secs_f64(as_f64(v, key)?))
            }
            other => return Err(format!("unknown controller key `{other}`")),
        }
    }
    Ok(())
}

/// Controller-federation knobs:
///
/// ```yaml
/// mesh:
///   shards: 4            # controller instances; 1 = plain testbed
///   link_latency_us: 500 # one-way gossip latency
///   loss: 0.05           # per-delivery delta loss probability
///   leases: true         # deployment-lease coordination
///   gossip_interval_ms: 50 # retransmit back-off after a lost delta
///   threads: 4           # threads running shards, caller included (<= shards); hash-invariant
/// ```
fn apply_mesh(value: &Yaml, cfg: &mut ScenarioConfig) -> Result<(), String> {
    let Some(map) = value.as_map() else {
        return Err("`mesh` must be a mapping".into());
    };
    let mut mesh = MeshParams::default();
    for (key, v) in map {
        match key.as_str() {
            "shards" => {
                mesh.shards = as_u64(v, key)? as usize;
                if mesh.shards == 0 {
                    return Err("`mesh.shards` must be at least 1".into());
                }
            }
            "link_latency_us" => {
                mesh.link_latency = SimDuration::from_micros(as_u64(v, key)?);
            }
            "loss" => {
                mesh.loss = as_f64(v, key)?;
                if !(0.0..1.0).contains(&mesh.loss) {
                    return Err("`mesh.loss` must be in [0, 1)".into());
                }
            }
            "leases" => mesh.leases = as_bool(v, key)?,
            "gossip_interval_ms" => {
                mesh.gossip_interval = SimDuration::from_millis_f64(as_f64(v, key)?);
            }
            "threads" => {
                mesh.threads = as_u64(v, key)? as usize;
                if mesh.threads == 0 {
                    return Err("`mesh.threads` must be at least 1".into());
                }
            }
            other => return Err(format!("unknown mesh key `{other}`")),
        }
    }
    if mesh.threads > mesh.shards {
        return Err(format!(
            "`mesh.threads` ({}) exceeds `mesh.shards` ({}): each thread \
             that runs shards owns whole ones, so extra threads could only idle",
            mesh.threads, mesh.shards
        ));
    }
    cfg.mesh = mesh;
    Ok(())
}

/// Workload-engine knobs — which arrival model shapes the generated trace,
/// the service mix, per-model parameters, and client mobility:
///
/// ```yaml
/// workload:
///   model: flash-crowd      # any name/alias the WorkloadRegistry knows
///   services: 42            # service population
///   total_requests: 1708    # requests over the window
///   duration_s: 300         # window length
///   min_per_service: 20     # per-service request floor
///   zipf_exponent: 0.9      # popularity law
///   first_seen_mean_s: 18   # bigflows: mean first-seen offset
///   handovers_per_client: 2 # expected mid-session ingress handovers
///   spike_at_s: 10          # flash-crowd: spike start
///   spike_window_s: 5       # flash-crowd: spike length
///   spike_fraction: 0.5     # flash-crowd: request mass inside the spike
///   burst_on_s: 5           # mmpp: ON-phase length
///   burst_off_s: 20         # mmpp: OFF-phase length
///   burst_ratio: 9          # mmpp: ON-phase rate multiplier (>= 1)
///   diurnal_peak: 0.5       # diurnal: peak position in [0, 1)
///   diurnal_amplitude: 0.8  # diurnal: rate swing in [0, 1)
/// ```
///
/// `model` is validated at parse time against [`workload::WorkloadRegistry`]
/// (the typed [`workload::UnknownModel`] error lists what exists — same
/// contract as `scheduler`). The number of clients comes from the top-level
/// `clients` key; `generate_workload` overrides the mix with it.
fn apply_workload(value: &Yaml, cfg: &mut ScenarioConfig) -> Result<(), String> {
    let Some(map) = value.as_map() else {
        return Err("`workload` must be a mapping".into());
    };
    let mut wl = workload::WorkloadConfig::default();
    for (key, v) in map {
        match key.as_str() {
            "model" => {
                let Some(name) = v.as_str() else {
                    return Err(format!("`{key}` must be a workload model name string"));
                };
                // Parse-time validation: fail with the registry's typed
                // error (listing available models) instead of at run time.
                WorkloadRegistry::builtin()
                    .resolve(name)
                    .map_err(|e| format!("`{key}`: {e}"))?;
                wl.model = name.to_string();
            }
            "services" => wl.mix.services = as_u64(v, key)? as usize,
            "total_requests" => wl.mix.total_requests = as_u64(v, key)? as usize,
            "duration_s" => wl.mix.duration = SimDuration::from_secs_f64(as_f64(v, key)?),
            "min_per_service" => wl.mix.min_per_service = as_u64(v, key)? as usize,
            "zipf_exponent" => wl.mix.zipf_exponent = as_f64(v, key)?,
            "first_seen_mean_s" => {
                wl.mix.first_seen_mean = SimDuration::from_secs_f64(as_f64(v, key)?)
            }
            "handovers_per_client" => {
                wl.handovers_per_client = as_f64(v, key)?;
                if wl.handovers_per_client < 0.0 {
                    return Err("`workload.handovers_per_client` must be non-negative".into());
                }
            }
            "spike_at_s" => wl.spike_at = SimDuration::from_secs_f64(as_f64(v, key)?),
            "spike_window_s" => wl.spike_window = SimDuration::from_secs_f64(as_f64(v, key)?),
            "spike_fraction" => {
                wl.spike_fraction = as_f64(v, key)?;
                if !(0.0..1.0).contains(&wl.spike_fraction) {
                    return Err("`workload.spike_fraction` must be in [0, 1)".into());
                }
            }
            "burst_on_s" => wl.burst_on = SimDuration::from_secs_f64(as_f64(v, key)?),
            "burst_off_s" => wl.burst_off = SimDuration::from_secs_f64(as_f64(v, key)?),
            "burst_ratio" => {
                wl.burst_ratio = as_f64(v, key)?;
                if wl.burst_ratio < 1.0 {
                    return Err("`workload.burst_ratio` must be at least 1".into());
                }
            }
            "diurnal_peak" => {
                wl.diurnal_peak = as_f64(v, key)?;
                if !(0.0..1.0).contains(&wl.diurnal_peak) {
                    return Err("`workload.diurnal_peak` must be in [0, 1)".into());
                }
            }
            "diurnal_amplitude" => {
                wl.diurnal_amplitude = as_f64(v, key)?;
                if !(0.0..1.0).contains(&wl.diurnal_amplitude) {
                    return Err("`workload.diurnal_amplitude` must be in [0, 1)".into());
                }
            }
            other => return Err(format!("unknown workload key `{other}`")),
        }
    }
    if wl.mix.services == 0 {
        return Err("`workload.services` must be at least 1".into());
    }
    if wl.mix.total_requests < wl.mix.services * wl.mix.min_per_service {
        return Err(format!(
            "`workload.total_requests` ({}) cannot satisfy the per-service \
             floor ({} services x {} min_per_service = {})",
            wl.mix.total_requests,
            wl.mix.services,
            wl.mix.min_per_service,
            wl.mix.services * wl.mix.min_per_service
        ));
    }
    let registry = WorkloadRegistry::builtin();
    let resolved = registry
        .resolve(&wl.model)
        .map_err(|e| format!("`workload.model`: {e}"))?;
    if resolved.name == "flash-crowd" && wl.spike_at + wl.spike_window > wl.mix.duration {
        return Err(format!(
            "`workload`: the flash-crowd spike ({} + {}) overruns the window ({})",
            wl.spike_at, wl.spike_window, wl.mix.duration
        ));
    }
    cfg.workload = wl;
    Ok(())
}

fn parse_site(v: &Yaml) -> Result<(SiteSpec, ClusterKind), String> {
    let Some(map) = v.as_map() else {
        return Err("each site must be a mapping".into());
    };
    let mut name = None;
    let mut class = NodeClass::Egs;
    let mut latency = SimDuration::from_micros(80);
    let mut nodes = 1usize;
    let mut backend = ClusterKind::Docker;
    let mut capacity = SiteCapacity::UNLIMITED;
    let mut labels = Vec::new();
    for (key, val) in map {
        match key.as_str() {
            "name" => name = val.as_str().map(str::to_string),
            "class" => {
                class = match val.as_str() {
                    Some("pi") => NodeClass::RaspberryPi,
                    Some("egs") => NodeClass::Egs,
                    other => return Err(format!("unknown site class {other:?}")),
                }
            }
            "latency_ms" => latency = SimDuration::from_millis_f64(as_f64(val, key)?),
            "nodes" => nodes = as_u64(val, key)? as usize,
            "backend" => backend = parse_backend(val, key)?,
            "cpu_millis" => {
                capacity.cpu_millis =
                    u32::try_from(as_u64(val, key)?).map_err(|_| format!("`{key}` out of range"))?
            }
            "memory_mib" => capacity.memory_mib = as_u64(val, key)?,
            "max_replicas" => {
                capacity.max_replicas =
                    u32::try_from(as_u64(val, key)?).map_err(|_| format!("`{key}` out of range"))?
            }
            "labels" => {
                let seq = val
                    .as_seq()
                    .ok_or_else(|| format!("`{key}` must be a sequence"))?;
                labels = seq
                    .iter()
                    .map(|v| {
                        v.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| format!("`{key}` entries must be strings"))
                    })
                    .collect::<Result<_, _>>()?;
            }
            other => return Err(format!("unknown site key `{other}`")),
        }
    }
    let name = name.ok_or("site needs a `name`")?;
    let base = match class {
        NodeClass::Egs => SiteSpec::egs(name),
        NodeClass::RaspberryPi => SiteSpec::pi(name, latency),
    };
    Ok((
        SiteSpec {
            latency,
            nodes,
            capacity,
            labels,
            ..base
        },
        backend,
    ))
}

/// One pre-provisioned flow entry:
///
/// ```yaml
/// seed_flows:
///   - priority: 50
///     cookie: 7          # optional
///     idle_s: 30         # optional
///     match:             # all fields optional; omitted = wildcard
///       protocol: tcp    # tcp | udp
///       src_ip: 10.1.0.1
///       src_port: 40000
///       dst_ip: 93.184.0.1
///       dst_port: 80
///       src_net: 10.1.0.0/16
///       dst_net: 93.184.0.0/16
///     actions: [to-controller]
/// ```
///
/// Actions: `drop`, `to-controller`, `output:<port>`, `set-src-ip:<ip>`,
/// `set-dst-ip:<ip>`, `set-src-port:<port>`, `set-dst-port:<port>`.
fn parse_seed_flow(v: &Yaml) -> Result<FlowSpec, String> {
    let Some(map) = v.as_map() else {
        return Err("each seed flow must be a mapping".into());
    };
    let mut spec = FlowSpec::new(FlowMatch::default());
    let mut has_actions = false;
    for (key, val) in map {
        match key.as_str() {
            "priority" => spec.priority = as_u16(val, key)?,
            "cookie" => spec.cookie = as_u64(val, key)?,
            "idle_s" => spec.idle_timeout = Some(as_timeout(val, key)?),
            "hard_s" => spec.hard_timeout = Some(as_timeout(val, key)?),
            "match" => spec.matcher = parse_flow_match(val)?,
            "actions" => {
                let seq = val
                    .as_seq()
                    .ok_or_else(|| format!("`{key}` must be a sequence"))?;
                spec.actions = seq.iter().map(parse_action).collect::<Result<_, _>>()?;
                has_actions = true;
            }
            other => return Err(format!("unknown seed flow key `{other}`")),
        }
    }
    if !has_actions {
        return Err("seed flow needs an `actions` list".into());
    }
    Ok(spec)
}

fn parse_flow_match(v: &Yaml) -> Result<FlowMatch, String> {
    let Some(map) = v.as_map() else {
        return Err("`match` must be a mapping".into());
    };
    let mut m = FlowMatch::default();
    for (key, val) in map {
        match key.as_str() {
            "protocol" => {
                m.protocol = Some(match val.as_str() {
                    Some("tcp") => Protocol::Tcp,
                    Some("udp") => Protocol::Udp,
                    other => return Err(format!("`{key}`: unknown protocol {other:?}")),
                })
            }
            "src_ip" => m.src_ip = Some(parse_ip(val, key)?),
            "dst_ip" => m.dst_ip = Some(parse_ip(val, key)?),
            "src_port" => m.src_port = Some(as_u16(val, key)?),
            "dst_port" => m.dst_port = Some(as_u16(val, key)?),
            "src_net" => m.src_net = Some(parse_net(val, key)?),
            "dst_net" => m.dst_net = Some(parse_net(val, key)?),
            other => return Err(format!("unknown match key `{other}`")),
        }
    }
    Ok(m)
}

fn parse_ip(v: &Yaml, key: &str) -> Result<IpAddr, String> {
    v.as_str()
        .ok_or_else(|| format!("`{key}` must be a dotted-quad string"))?
        .parse::<IpAddr>()
        .map_err(|e| format!("`{key}`: {e}"))
}

fn parse_net(v: &Yaml, key: &str) -> Result<IpNet, String> {
    let s = v
        .as_str()
        .ok_or_else(|| format!("`{key}` must be a `addr/prefix` string"))?;
    let (addr, prefix) = s
        .split_once('/')
        .ok_or_else(|| format!("`{key}` must be `addr/prefix`, got `{s}`"))?;
    let addr = addr
        .parse::<IpAddr>()
        .map_err(|e| format!("`{key}`: {e}"))?;
    let prefix: u8 = prefix
        .parse()
        .map_err(|_| format!("`{key}`: bad prefix `{prefix}`"))?;
    if prefix > 32 {
        return Err(format!("`{key}`: prefix {prefix} out of range (0-32)"));
    }
    Ok(IpNet::new(addr, prefix))
}

fn parse_action(v: &Yaml) -> Result<Action, String> {
    let Some(s) = v.as_str() else {
        return Err("each action must be a string".into());
    };
    match s {
        "drop" => return Ok(Action::Drop),
        "to-controller" => return Ok(Action::ToController),
        _ => {}
    }
    let Some((op, arg)) = s.split_once(':') else {
        return Err(format!("unknown action `{s}`"));
    };
    let port_arg = || {
        arg.parse::<u16>()
            .map_err(|_| format!("action `{op}`: bad port `{arg}`"))
    };
    let ip_arg = || {
        arg.parse::<IpAddr>()
            .map_err(|e| format!("action `{op}`: {e}"))
    };
    match op {
        "output" => Ok(Action::Output(PortId(port_arg()? as usize))),
        "set-src-ip" => Ok(Action::SetSrcIp(ip_arg()?)),
        "set-dst-ip" => Ok(Action::SetDstIp(ip_arg()?)),
        "set-src-port" => Ok(Action::SetSrcPort(port_arg()?)),
        "set-dst-port" => Ok(Action::SetDstPort(port_arg()?)),
        other => Err(format!("unknown action `{other}`")),
    }
}

fn parse_service(v: &Yaml, key: &str) -> Result<ServiceKind, String> {
    match v.as_str().map(str::to_ascii_lowercase).as_deref() {
        Some("asm") => Ok(ServiceKind::Asm),
        Some("nginx") => Ok(ServiceKind::Nginx),
        Some("resnet") => Ok(ServiceKind::ResNet),
        Some("nginx+py" | "nginx-py" | "nginxpy") => Ok(ServiceKind::NginxPy),
        Some("wasm-web" | "wasmweb" | "wasm") => Ok(ServiceKind::WasmWeb),
        other => Err(format!("`{key}`: unknown service {other:?}")),
    }
}

fn parse_scheduler(v: &Yaml, key: &str) -> Result<SchedulerSpec, String> {
    let Some(name) = v.as_str() else {
        return Err(format!("`{key}` must be a scheduler name string"));
    };
    // Validate at parse time so bad scenario files fail with the registry's
    // typed error (listing the available policies) instead of at build time.
    SchedulerRegistry::builtin()
        .resolve(name)
        .map_err(|e| format!("`{key}`: {e}"))?;
    Ok(SchedulerSpec::named(name))
}

fn parse_backend(v: &Yaml, key: &str) -> Result<ClusterKind, String> {
    match v.as_str().map(str::to_ascii_lowercase).as_deref() {
        Some("docker") => Ok(ClusterKind::Docker),
        Some("k8s" | "kubernetes") => Ok(ClusterKind::Kubernetes),
        Some("wasm") => Ok(ClusterKind::Wasm),
        other => Err(format!("`{key}`: unknown backend {other:?}")),
    }
}

fn parse_phase(v: &Yaml, key: &str) -> Result<PhaseSetup, String> {
    match v.as_str() {
        Some("cold") => Ok(PhaseSetup::Cold),
        Some("images-cached") => Ok(PhaseSetup::ImagesCached),
        Some("created") => Ok(PhaseSetup::Created),
        Some("running") => Ok(PhaseSetup::Running),
        other => Err(format!("`{key}`: unknown phase {other:?}")),
    }
}

fn parse_predictor(v: &Yaml, key: &str) -> Result<PredictorKind, String> {
    match v.as_str() {
        Some("none") => Ok(PredictorKind::None),
        Some("popularity") => Ok(PredictorKind::Popularity),
        Some("oracle") => Ok(PredictorKind::Oracle),
        other => Err(format!("`{key}`: unknown predictor {other:?}")),
    }
}

fn as_u64(v: &Yaml, key: &str) -> Result<u64, String> {
    v.as_i64()
        .filter(|&n| n >= 0)
        .map(|n| n as u64)
        .ok_or_else(|| format!("`{key}` must be a non-negative integer"))
}

fn as_u16(v: &Yaml, key: &str) -> Result<u16, String> {
    u16::try_from(as_u64(v, key)?).map_err(|_| format!("`{key}` must be at most 65535"))
}

fn as_f64(v: &Yaml, key: &str) -> Result<f64, String> {
    v.as_f64()
        .ok_or_else(|| format!("`{key}` must be a number"))
}

/// The longest timeout accepted, in seconds (≈ 31.7 years): every deadline
/// `now + timeout` of a run stays far inside `SimTime`'s range.
const MAX_TIMEOUT_S: f64 = 1e9;

/// A timeout in seconds. `SimDuration::from_secs_f64` reads zero, negative
/// and non-finite values as `ZERO` — a switch rule that expires as it is
/// installed, a FlowMemory that cannot be built — so they are refused here,
/// as is anything under a nanosecond or past `MAX_TIMEOUT_S`.
fn as_timeout(v: &Yaml, key: &str) -> Result<SimDuration, String> {
    let secs = as_f64(v, key)?;
    if !(secs > 0.0 && secs <= MAX_TIMEOUT_S) || SimDuration::from_secs_f64(secs).is_zero() {
        return Err(format!(
            "`{key}` must be a positive number of seconds (at least 1 ns, at most {MAX_TIMEOUT_S:e}), got {secs}"
        ));
    }
    Ok(SimDuration::from_secs_f64(secs))
}

fn as_bool(v: &Yaml, key: &str) -> Result<bool, String> {
    v.as_bool()
        .ok_or_else(|| format!("`{key}` must be a boolean"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_scenario_parses() {
        let doc = yamlite::parse(
            r#"
seed: 7
service: ResNet
scheduler: hybrid
backends: [docker, k8s]
phase: images-cached
private_registry: true
clients: 10
predictor: popularity
predict_interval_s: 2
controller:
  probe_interval_ms: 20
  memory_idle_timeout_s: 120
  scale_down_idle: true
  deploy_retries: 4
"#,
        )
        .unwrap();
        let cfg = scenario_from_yaml(&doc).unwrap();
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.service, ServiceKind::ResNet);
        assert_eq!(cfg.scheduler, SchedulerSpec::named("hybrid"));
        assert_eq!(
            cfg.backends,
            vec![ClusterKind::Docker, ClusterKind::Kubernetes]
        );
        assert_eq!(cfg.phase_setup, PhaseSetup::ImagesCached);
        assert!(cfg.private_registry);
        assert_eq!(cfg.clients, 10);
        assert_eq!(cfg.predictor, PredictorKind::Popularity);
        assert_eq!(cfg.controller.probe_interval, SimDuration::from_millis(20));
        assert_eq!(
            cfg.controller.memory_idle_timeout,
            SimDuration::from_secs(120)
        );
        assert!(cfg.controller.scale_down_idle);
        assert_eq!(cfg.controller.deploy_retries, 4);
    }

    #[test]
    fn sites_parse_into_specs() {
        let doc = yamlite::parse(
            r#"
sites:
  - name: near-edge
    class: pi
    latency_ms: 0.3
    nodes: 8
    backend: docker
  - name: far-edge
    class: egs
    latency_ms: 8
    backend: k8s
    cpu_millis: 8000
    memory_mib: 16384
    max_replicas: 12
    labels: [gpu, metro]
"#,
        )
        .unwrap();
        let cfg = scenario_from_yaml(&doc).unwrap();
        let sites = cfg.resolved_sites();
        assert_eq!(sites.len(), 2);
        assert_eq!(sites[0].0.name, "near-edge");
        assert_eq!(sites[0].0.class, NodeClass::RaspberryPi);
        assert_eq!(sites[0].0.nodes, 8);
        assert_eq!(sites[0].1, ClusterKind::Docker);
        assert!(sites[0].0.capacity.is_unlimited());
        assert_eq!(sites[1].0.latency, SimDuration::from_millis(8));
        assert_eq!(sites[1].1, ClusterKind::Kubernetes);
        assert_eq!(sites[1].0.capacity.cpu_millis, 8000);
        assert_eq!(sites[1].0.capacity.memory_mib, 16384);
        assert_eq!(sites[1].0.capacity.max_replicas, 12);
        assert_eq!(sites[1].0.labels, vec!["gpu", "metro"]);
    }

    #[test]
    fn unknown_scheduler_lists_available() {
        let err = scenario_from_yaml(&yamlite::parse("scheduler: magic").unwrap()).unwrap_err();
        assert!(err.contains("unknown scheduler `magic`"), "{err}");
        assert!(err.contains("bounded-cost"), "{err}");
    }

    #[test]
    fn defaults_when_empty() {
        let cfg = scenario_from_yaml(&yamlite::parse("{}").unwrap()).unwrap();
        assert_eq!(cfg.service, ServiceKind::Nginx);
        assert_eq!(cfg.clients, 20);
    }

    #[test]
    fn unknown_keys_rejected() {
        let err = scenario_from_yaml(&yamlite::parse("sevice: Nginx").unwrap()).unwrap_err();
        assert!(err.contains("unknown scenario key"), "{err}");
        let err =
            scenario_from_yaml(&yamlite::parse("controller:\n  probez: 1").unwrap()).unwrap_err();
        assert!(err.contains("unknown controller key"), "{err}");
    }

    #[test]
    fn bad_values_rejected() {
        assert!(scenario_from_yaml(&yamlite::parse("service: gopher").unwrap()).is_err());
        assert!(scenario_from_yaml(&yamlite::parse("seed: -4").unwrap()).is_err());
        assert!(scenario_from_yaml(&yamlite::parse("backends: docker").unwrap()).is_err());
        assert!(scenario_from_yaml(&yamlite::parse("42").unwrap()).is_err());
    }

    #[test]
    fn hostile_timeouts_name_their_key() {
        for key in ["switch_idle_timeout_s", "memory_idle_timeout_s"] {
            for bad in ["0", "-5", "1e400", "1e-12", "2e9", "soon"] {
                let doc = yamlite::parse(&format!("controller:\n  {key}: {bad}\n")).unwrap();
                let err = scenario_from_yaml(&doc).unwrap_err();
                assert!(err.contains(key), "{key}: {bad}: {err}");
            }
        }
        for key in ["idle_s", "hard_s"] {
            for bad in ["0", "-1", "0.0", "1e400"] {
                let doc = yamlite::parse(&format!(
                    "seed_flows:\n  - actions: [drop]\n    {key}: {bad}\n"
                ))
                .unwrap();
                let err = scenario_from_yaml(&doc).unwrap_err();
                assert!(err.contains(key), "{key}: {bad}: {err}");
            }
        }
        let doc = yamlite::parse("controller:\n  switch_idle_timeout_s: 0.5\n").unwrap();
        assert_eq!(
            scenario_from_yaml(&doc)
                .unwrap()
                .controller
                .switch_idle_timeout,
            SimDuration::from_millis(500)
        );
    }

    #[test]
    fn seed_flow_fields_stay_in_range() {
        for (bad, names) in [
            ("priority: 70000\n    actions: [drop]", "priority"),
            (
                "actions: [drop]\n    match:\n      src_port: 65536",
                "src_port",
            ),
            (
                "actions: [drop]\n    match:\n      dst_port: 99999",
                "dst_port",
            ),
            ("actions: [\"output:999\"]", "output:999"),
            // 1 cloud + 1 site + 2 clients: ports 0-3, declared after the flow.
            ("actions: [\"output:4\"]\nclients: 2", "output:4"),
        ] {
            let doc = yamlite::parse(&format!("seed_flows:\n  - {bad}\n")).unwrap();
            let err = scenario_from_yaml(&doc).unwrap_err();
            assert!(err.contains(names), "{bad}: {err}");
        }
        let doc = yamlite::parse(
            "seed_flows:\n  - priority: 65535\n    actions: [\"output:3\"]\nclients: 2\n",
        )
        .unwrap();
        let cfg = scenario_from_yaml(&doc).unwrap();
        assert_eq!(cfg.seed_flows[0].priority, 65535);
    }

    #[test]
    fn mesh_block_parses() {
        let doc = yamlite::parse(
            r#"
mesh:
  shards: 4
  link_latency_us: 800
  loss: 0.05
  leases: false
  gossip_interval_ms: 25
  threads: 2
"#,
        )
        .unwrap();
        let cfg = scenario_from_yaml(&doc).unwrap();
        assert_eq!(cfg.mesh.shards, 4);
        assert_eq!(cfg.mesh.link_latency, SimDuration::from_micros(800));
        assert!((cfg.mesh.loss - 0.05).abs() < 1e-12);
        assert!(!cfg.mesh.leases);
        assert_eq!(cfg.mesh.gossip_interval, SimDuration::from_millis(25));
        assert_eq!(cfg.mesh.threads, 2);
        // Defaults: single shard, lossless, leases on.
        let cfg = scenario_from_yaml(&yamlite::parse("{}").unwrap()).unwrap();
        assert_eq!(cfg.mesh, MeshParams::default());
        assert_eq!(cfg.mesh.shards, 1);
    }

    #[test]
    fn mesh_bad_values_rejected() {
        for bad in [
            "mesh:\n  shards: 0",
            "mesh:\n  loss: 1.5",
            "mesh:\n  sharts: 2",
            "mesh:\n  threads: 0",
            "mesh:\n  shards: 2\n  threads: 4",
        ] {
            let err = scenario_from_yaml(&yamlite::parse(bad).unwrap()).unwrap_err();
            assert!(err.contains("mesh"), "{err}");
        }
    }

    #[test]
    fn workload_block_parses() {
        let doc = yamlite::parse(
            r#"
clients: 40
workload:
  model: spike
  services: 10
  total_requests: 500
  duration_s: 60
  min_per_service: 5
  zipf_exponent: 1.1
  handovers_per_client: 1.5
  spike_at_s: 20
  spike_window_s: 4
  spike_fraction: 0.6
"#,
        )
        .unwrap();
        let cfg = scenario_from_yaml(&doc).unwrap();
        assert_eq!(cfg.workload.model, "spike");
        assert_eq!(cfg.workload.mix.services, 10);
        assert_eq!(cfg.workload.mix.total_requests, 500);
        assert_eq!(cfg.workload.mix.duration, SimDuration::from_secs(60));
        assert_eq!(cfg.workload.mix.min_per_service, 5);
        assert!((cfg.workload.handovers_per_client - 1.5).abs() < 1e-12);
        assert_eq!(cfg.workload.spike_at, SimDuration::from_secs(20));
        assert!((cfg.workload.spike_fraction - 0.6).abs() < 1e-12);
        // Defaults: the paper's bigflows replay, static clients.
        let cfg = scenario_from_yaml(&yamlite::parse("{}").unwrap()).unwrap();
        assert_eq!(cfg.workload, workload::WorkloadConfig::default());
    }

    #[test]
    fn unknown_workload_model_lists_available() {
        let err = scenario_from_yaml(
            &yamlite::parse(
                "workload:
  model: tsunami",
            )
            .unwrap(),
        )
        .unwrap_err();
        assert!(err.contains("unknown workload model `tsunami`"), "{err}");
        assert!(err.contains("flash-crowd"), "{err}");
        assert!(err.contains("bigflows"), "{err}");
    }

    #[test]
    fn workload_bad_values_rejected() {
        for bad in [
            "workload:
  modle: poisson",
            "workload:
  handovers_per_client: -1",
            "workload:
  spike_fraction: 1.5",
            "workload:
  burst_ratio: 0.5",
            "workload:
  diurnal_peak: 1.0",
            "workload:
  diurnal_amplitude: -0.1",
            "workload:
  services: 0",
            "workload:
  services: 50
  total_requests: 100
  min_per_service: 20",
            "workload:
  model: flash-crowd
  duration_s: 8",
        ] {
            let err = scenario_from_yaml(&yamlite::parse(bad).unwrap()).unwrap_err();
            assert!(err.contains("workload"), "{bad}: {err}");
        }
    }

    #[test]
    fn wasm_service_and_backend() {
        let doc = yamlite::parse("service: wasm-web\nbackends: [wasm]\n").unwrap();
        let cfg = scenario_from_yaml(&doc).unwrap();
        assert_eq!(cfg.service, ServiceKind::WasmWeb);
        assert_eq!(cfg.backends, vec![ClusterKind::Wasm]);
    }
}
