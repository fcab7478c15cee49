//! Program side of the repository benchmark (`perfbench/run.py` drives it).
//!
//! Every subcommand runs in a fresh process and prints one JSON object
//! on its last line of standard output:
//!
//! * `gen <workload> <seed> <dir> [--tiny]` writes the workload's FASTA
//!   inputs, made with `genome::evolve`, and prints its job list.
//! * `align <target.fa> <query.fa> --threads N --maf OUT` is one
//!   end-to-end `wga align` job with tracing off.
//! * `many <g0.fa> <g1.fa> ... --threads N --report-out R --paf-out P
//!   --checkpoint DIR` is one end-to-end `wga many` job with tracing off.
//! * `setup-align` / `setup-many` take the same arguments, stop once the
//!   job is set up (FASTA parsed, params validated, outputs pre-opened)
//!   and print only `setup_s`: cheap extra samples of set-up time.
//! * `trace-align` / `trace-many` take the same arguments plus
//!   `--spans FILE --run-id N` and run the traced composition of each
//!   layer's public calls (see `compose`).
//!
//! The jobs pass only inputs, a thread count and output paths; every
//! other setting is the program's default.

mod compose;
mod trace;

use darwin_wga::chain::chainer::chain_alignments;
use darwin_wga::core::durable;
use darwin_wga::core::genome_pipeline::{align_assemblies_with, AlignOptions, AssemblyReport};
use darwin_wga::core::maf;
use darwin_wga::core::pangenome::{self, ManyOptions, ManyReport};
use darwin_wga::core::report::FunnelCounters;
use darwin_wga::core::WgaParams;
use darwin_wga::genome::assembly::Assembly;
use darwin_wga::genome::evolve::{EvolutionParams, SyntheticPair};
use darwin_wga::genome::{fasta, Sequence};
use darwin_wga::hwsim::Workload;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default().to_vec();
    let result = match args.first().map(String::as_str) {
        Some("gen") => cmd_gen(rest),
        Some("align") => Cli::parse(rest).and_then(|cli| cmd_align(&cli, process_start, false)),
        Some("many") => Cli::parse(rest).and_then(|cli| cmd_many(&cli, process_start, false)),
        Some("setup-align") => {
            Cli::parse(rest).and_then(|cli| cmd_align(&cli, process_start, true))
        }
        Some("setup-many") => Cli::parse(rest).and_then(|cli| cmd_many(&cli, process_start, true)),
        Some("trace-align") => Cli::parse(rest).and_then(|cli| compose::trace_align(&cli)),
        Some("trace-many") => Cli::parse(rest).and_then(|cli| compose::trace_many(&cli)),
        _ => Err(
            "usage: wga-perfbench gen|align|many|setup-align|setup-many|trace-align|trace-many ..."
                .to_string(),
        ),
    };
    match result {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/// Generates the inputs of one workload from `seed` into `dir`.
///
/// Every workload is several independent jobs (chromosome pairs, or
/// four-genome matrices), so that one run's figures average over more
/// than one draw of the evolution model.
fn cmd_gen(args: Vec<String>) -> Result<String, String> {
    let tiny = args.iter().any(|a| a == "--tiny");
    let pos: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let [workload, seed, dir] = pos[..] else {
        return Err("gen needs <workload> <seed> <dir>".to_string());
    };
    let seed: u64 = seed.parse().map_err(|_| format!("bad seed: {seed}"))?;
    let dir = Path::new(dir.as_str());
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let scale = |len: usize| if tiny { len / 10 } else { len };

    let (kind, threads, jobs) = match workload.as_str() {
        "pair-homolog" | "pair-distant" => {
            let mut jobs = Vec::new();
            let pairs = if workload == "pair-homolog" {
                PAIR_HOMOLOG_JOBS
            } else {
                PAIR_DISTANT_JOBS
            };
            for p in 0..pairs {
                let (target, query) = if workload == "pair-homolog" {
                    evolve(
                        &mut rng,
                        scale(PAIR_HOMOLOG_LEN),
                        0.3,
                        scale(PAIR_HOMOLOG_LEN),
                    )
                } else {
                    // A saturated background with one conserved block:
                    // almost every seed hit is noise, yet the matched
                    // bases do not hinge on a handful of chance hits.
                    // Random hits grow with the square of the background
                    // length, so the background must stay long for the
                    // filter to dominate; the block is barely diverged,
                    // so it adds matched bases at little extension cost.
                    let (mut target, mut query) = evolve(
                        &mut rng,
                        scale(PAIR_DISTANT_ANCESTOR),
                        2.0,
                        scale(PAIR_DISTANT_LEN),
                    );
                    let block = scale(PAIR_DISTANT_CONSERVED_LEN);
                    let (t_block, q_block) =
                        evolve(&mut rng, block, PAIR_DISTANT_CONSERVED_DISTANCE, block);
                    target.extend(t_block.iter());
                    query.extend(q_block.iter());
                    (target, query)
                };
                let target_path = dir.join(format!("p{p}.target.fa"));
                let query_path = dir.join(format!("p{p}.query.fa"));
                write_fasta(&target_path, &[("chr1", &target)])?;
                write_fasta(&query_path, &[("chr1", &query)])?;
                jobs.push(vec![target_path, query_path]);
            }
            let threads = if workload == "pair-homolog" { 1 } else { 2 };
            ("align", threads, jobs)
        }
        "many-matrix" => {
            // Two clusters of two genomes; cross-cluster pairs share no
            // ancestry, so they are filter noise. Several independent
            // matrices, each its own job, as with the pair workloads.
            let mut jobs = Vec::new();
            for m in 0..MANY_JOBS {
                let mut genomes: Vec<Vec<(String, Sequence)>> = vec![Vec::new(); 4];
                for (cluster, distance) in [(0usize, 0.2), (1, 0.4)] {
                    for c in 0..MANY_CHROMS {
                        let (target, query) = evolve(
                            &mut rng,
                            scale(MANY_CHROM_LEN),
                            distance,
                            scale(MANY_CHROM_LEN),
                        );
                        let name = format!("chr{}", c + 1);
                        genomes[2 * cluster].push((name.clone(), target));
                        genomes[2 * cluster + 1].push((name, query));
                    }
                }
                let matrix_dir = dir.join(format!("m{m}"));
                std::fs::create_dir_all(&matrix_dir)
                    .map_err(|e| format!("{}: {e}", matrix_dir.display()))?;
                let mut files = Vec::new();
                for (g, chroms) in genomes.iter().enumerate() {
                    let path = matrix_dir.join(format!("g{g}.fa"));
                    let records: Vec<(&str, &Sequence)> =
                        chroms.iter().map(|(n, s)| (n.as_str(), s)).collect();
                    write_fasta(&path, &records)?;
                    files.push(path);
                }
                jobs.push(files);
            }
            ("many", 2, jobs)
        }
        other => return Err(format!("unknown workload: {other}")),
    };
    let jobs_json: Vec<String> = jobs
        .iter()
        .map(|files| {
            let names: Vec<String> = files
                .iter()
                .map(|f| format!("\"{}\"", f.display()))
                .collect();
            format!("[{}]", names.join(","))
        })
        .collect();
    Ok(format!(
        "{{\"kind\":\"{kind}\",\"threads\":{threads},\"jobs\":[{}]}}",
        jobs_json.join(",")
    ))
}

/// `pair-homolog`: chromosome pairs per run, each its own job, and the
/// ancestor length of each (distance 0.3). Random seed hits, and so the
/// filter's work, grow with the square of a pair's length and extension
/// only linearly: at 100 kbp extension takes about 70 % of the layer
/// time and the filter most of the rest, as in the pair this workload
/// stands for; shorter pairs leave the filter a few percent.
const PAIR_HOMOLOG_JOBS: usize = 2;
const PAIR_HOMOLOG_LEN: usize = 100_000;
/// `pair-distant`: chromosome pairs per run, each its own job; ancestor
/// and cut length of the saturated background (distance 2.0, where
/// turnover makes a descendant about three times its ancestor), and
/// length and distance of the conserved block.
const PAIR_DISTANT_JOBS: usize = 3;
const PAIR_DISTANT_ANCESTOR: usize = 52_000;
const PAIR_DISTANT_LEN: usize = 136_000;
const PAIR_DISTANT_CONSERVED_LEN: usize = 4_000;
const PAIR_DISTANT_CONSERVED_DISTANCE: f64 = 0.05;
/// `many-matrix`: matrices per run, each its own job, of four genomes
/// with two chromosomes each. Small matrices keep many repeats in a
/// run and the 2-thread speculation loss, which grows faster than the
/// extension work, in proportion; ten of them keep the total work from
/// hinging on one draw.
const MANY_JOBS: usize = 10;
const MANY_CHROMS: usize = 2;
const MANY_CHROM_LEN: usize = 4_000;

/// Draws a pair of descendants of an `ancestor`-base ancestor at
/// `distance`, each cut to at most `len` bases. Insertions, duplications
/// and turnover change a descendant's length by up to a third from one
/// draw to the next; cutting keeps a run's work from hinging on that
/// draw.
fn evolve(
    rng: &mut rand::rngs::StdRng,
    ancestor: usize,
    distance: f64,
    len: usize,
) -> (Sequence, Sequence) {
    let pair = SyntheticPair::generate(ancestor, &EvolutionParams::at_distance(distance), rng);
    let cut = |seq: Sequence| seq.subsequence(0..len.min(seq.len()));
    (cut(pair.target.sequence), cut(pair.query.sequence))
}

fn write_fasta(path: &Path, records: &[(&str, &Sequence)]) -> Result<(), String> {
    let records: Vec<fasta::Record> = records
        .iter()
        .map(|(name, seq)| fasta::Record {
            name: name.to_string(),
            description: format!("{name} synthetic len={}", seq.len()),
            sequence: (*seq).clone(),
        })
        .collect();
    let file = File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = BufWriter::new(file);
    fasta::write(&mut out, &records).map_err(|e| format!("{}: {e}", path.display()))?;
    out.flush().map_err(|e| format!("{}: {e}", path.display()))
}

// ---------------------------------------------------------------------
// Command line of the job subcommands
// ---------------------------------------------------------------------

/// Inputs, thread count and output paths of one job.
#[derive(Debug, Default)]
pub struct Cli {
    pub inputs: Vec<PathBuf>,
    pub threads: usize,
    pub maf: Option<PathBuf>,
    pub report_out: Option<PathBuf>,
    pub paf_out: Option<PathBuf>,
    pub checkpoint: Option<PathBuf>,
    pub spans: Option<PathBuf>,
    pub run_id: u64,
}

impl Cli {
    fn parse(args: Vec<String>) -> Result<Cli, String> {
        let mut cli = Cli {
            threads: 1,
            ..Cli::default()
        };
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            if !arg.starts_with("--") {
                cli.inputs.push(PathBuf::from(arg));
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
            match arg.as_str() {
                "--threads" => {
                    cli.threads = value
                        .parse()
                        .map_err(|_| format!("bad --threads: {value}"))?
                }
                "--run-id" => {
                    cli.run_id = value
                        .parse()
                        .map_err(|_| format!("bad --run-id: {value}"))?
                }
                "--maf" => cli.maf = Some(value.into()),
                "--report-out" => cli.report_out = Some(value.into()),
                "--paf-out" => cli.paf_out = Some(value.into()),
                "--checkpoint" => cli.checkpoint = Some(value.into()),
                "--spans" => cli.spans = Some(value.into()),
                _ => return Err(format!("unknown flag {arg}")),
            }
        }
        Ok(cli)
    }

    pub fn required<'a>(&self, path: &'a Option<PathBuf>, flag: &str) -> Result<&'a Path, String> {
        path.as_deref().ok_or_else(|| format!("{flag} is required"))
    }
}

// ---------------------------------------------------------------------
// End-to-end jobs (tracing off)
// ---------------------------------------------------------------------

/// Reads one FASTA file as an assembly named after the file stem, as
/// `wga` does.
pub fn read_assembly(path: &Path) -> Result<Assembly, String> {
    let file = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let name = path.file_stem().map_or_else(
        || path.display().to_string(),
        |s| s.to_string_lossy().into_owned(),
    );
    let assembly = Assembly::from_fasta(name, BufReader::new(file))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    if assembly.is_empty() {
        return Err(format!("{}: no records", path.display()));
    }
    Ok(assembly)
}

fn darwin_params() -> Result<WgaParams, String> {
    let params = WgaParams::darwin_wga();
    params.validate().map_err(|e| e.to_string())?;
    Ok(params)
}

fn pre_open(path: &Path) -> Result<(), String> {
    durable::pre_open_check(path).map_err(|e| e.to_string())
}

/// Result line of a set-up-only run.
fn setup_json(setup_s: f64) -> String {
    format!("{{\"setup_s\":{}}}", num(setup_s))
}

/// One `wga align` job: align, chain every chromosome pair, write MAF.
fn cmd_align(cli: &Cli, process_start: Instant, setup_only: bool) -> Result<String, String> {
    let [target, query] = &cli.inputs[..] else {
        return Err("align needs <target.fa> <query.fa>".to_string());
    };
    let maf_path = cli.required(&cli.maf, "--maf")?;
    let target = read_assembly(target)?;
    let query = read_assembly(query)?;
    let params = darwin_params()?;
    pre_open(maf_path)?;
    let setup_s = process_start.elapsed().as_secs_f64();
    if setup_only {
        return Ok(setup_json(setup_s));
    }

    let start = Instant::now();
    let options = AlignOptions {
        threads: cli.threads,
        ..AlignOptions::default()
    };
    let report =
        align_assemblies_with(&params, &target, &query, &options).map_err(|e| e.to_string())?;
    let mut chains = 0u64;
    for tchrom in target.chromosomes() {
        for qchrom in query.chromosomes() {
            let alignments: Vec<_> = report
                .for_pair(&tchrom.name, &qchrom.name)
                .iter()
                .map(|la| la.aligned.alignment.clone())
                .collect();
            if !alignments.is_empty() {
                chains += chain_alignments(&alignments, CHAIN_MIN_SCORE).len() as u64;
            }
        }
    }
    let maf_bytes = render_maf(&report, &target, &query)?;
    durable::write_atomic(maf_path, &maf_bytes).map_err(|e| e.to_string())?;
    let wall_s = start.elapsed().as_secs_f64();

    let canonical = report.canonical_text();
    let mut counts = align_counts(&report.workload, &report.counters);
    counts.insert("chains", chains);
    counts.insert("alignments", report.alignments.len() as u64);
    counts.insert("matched_bp", report.total_matches());
    let pairs_bad = (report.degraded_pairs() + report.failed_pairs()) as u64;
    Ok(job_json(&JobResult {
        setup_s,
        wall_s,
        query_bp: query.total_bases() as u64,
        pairs: report.pairs.len() as u64,
        pairs_bad,
        resumed: report.resumed_pairs,
        spec_discard: report.counters.spec_discard,
        digest: fnv64(canonical.as_bytes()),
        out_digest: fnv64(&maf_bytes),
        aln_digest: aln_set_digest(&canonical),
        counts,
    }))
}

/// Minimum chain score `wga align` chains with.
pub const CHAIN_MIN_SCORE: i64 = 3000;

/// The MAF `wga align` writes: one header, then every chromosome pair's
/// blocks in target × query order.
pub fn render_maf(
    report: &AssemblyReport,
    target: &Assembly,
    query: &Assembly,
) -> Result<Vec<u8>, String> {
    let mut out: Vec<u8> = Vec::new();
    writeln!(out, "##maf version=1 scoring=darwin-wga").map_err(|e| e.to_string())?;
    for tchrom in target.chromosomes() {
        for qchrom in query.chromosomes() {
            let aligned: Vec<_> = report
                .for_pair(&tchrom.name, &qchrom.name)
                .iter()
                .map(|la| la.aligned.clone())
                .collect();
            if aligned.is_empty() {
                continue;
            }
            maf::write_maf_blocks(
                &mut out,
                &tchrom.name,
                &tchrom.sequence,
                &qchrom.name,
                &qchrom.sequence,
                &aligned,
            )
            .map_err(|e| e.to_string())?;
        }
    }
    Ok(out)
}

/// One `wga many` job: all-vs-all with per-pair checkpoint journals,
/// then the canonical report and PAF.
fn cmd_many(cli: &Cli, process_start: Instant, setup_only: bool) -> Result<String, String> {
    if cli.inputs.len() < 2 {
        return Err("many needs at least two genome FASTAs".to_string());
    }
    let report_path = cli.required(&cli.report_out, "--report-out")?;
    let paf_path = cli.required(&cli.paf_out, "--paf-out")?;
    let checkpoint = cli.required(&cli.checkpoint, "--checkpoint")?;
    let params = darwin_params()?;
    pre_open(report_path)?;
    pre_open(paf_path)?;
    let genomes: Vec<Assembly> = cli
        .inputs
        .iter()
        .map(|p| read_assembly(p))
        .collect::<Result<_, _>>()?;
    let setup_s = process_start.elapsed().as_secs_f64();
    if setup_only {
        return Ok(setup_json(setup_s));
    }

    let start = Instant::now();
    let options = ManyOptions {
        threads: cli.threads,
        checkpoint_dir: Some(checkpoint.to_path_buf()),
        ..ManyOptions::default()
    };
    let report = pangenome::align_many(&params, &genomes, &options).map_err(|e| e.to_string())?;
    let canonical = report.canonical_text();
    durable::write_atomic(report_path, canonical.as_bytes()).map_err(|e| e.to_string())?;
    let paf = pangenome::paf::paf_text(&report, &genomes);
    durable::write_atomic(paf_path, paf.as_bytes()).map_err(|e| e.to_string())?;
    let wall_s = start.elapsed().as_secs_f64();

    let pairs: u64 = report
        .pairs
        .iter()
        .map(|p| p.completed + p.degraded + p.failed)
        .sum();
    let pairs_bad: u64 = report.pairs.iter().map(|p| p.degraded + p.failed).sum();
    let query_bp = genomes.iter().map(|g| g.total_bases() as u64).sum();
    Ok(job_json(&JobResult {
        setup_s,
        wall_s,
        query_bp,
        pairs,
        pairs_bad,
        resumed: report.resumed_pairs,
        spec_discard: report.counters.spec_discard,
        digest: fnv64(format!("{canonical}{paf}").as_bytes()),
        out_digest: fnv64(paf.as_bytes()),
        aln_digest: aln_set_digest(&canonical),
        counts: many_counts(&report),
    }))
}

// ---------------------------------------------------------------------
// Counts, digests and JSON
// ---------------------------------------------------------------------

/// The deterministic counts a traced run must reproduce exactly: the
/// `Workload` plus `FunnelCounters::deterministic_view()`.
pub fn align_counts(w: &Workload, c: &FunnelCounters) -> BTreeMap<&'static str, u64> {
    let c = c.deterministic_view();
    BTreeMap::from([
        ("seeds", w.seeds),
        ("filter_tiles", w.filter_tiles),
        ("extension_tiles", w.extension_tiles),
        ("extension_cells", w.extension_cells),
        ("extension_rows", w.extension_rows),
        ("raw_seed_hits", c.raw_seed_hits),
        ("hits_filtered", c.hits_filtered),
        ("filter_cells", c.filter_cells),
        ("anchors_passed", c.anchors_passed),
        ("anchors_absorbed", c.anchors_absorbed),
        ("alignments_kept", c.alignments_kept),
        ("faults_injected", c.faults_injected),
        ("retries", c.retries),
        ("stalls_detected", c.stalls_detected),
        ("spec_discard", c.spec_discard),
    ])
}

pub fn many_counts(report: &ManyReport) -> BTreeMap<&'static str, u64> {
    let mut counts = align_counts(&report.workload, &report.counters);
    counts.insert("alignments", report.alignments.len() as u64);
    counts.insert(
        "matched_bp",
        report
            .alignments
            .iter()
            .map(|a| a.aligned.alignment.matches())
            .sum(),
    );
    counts.insert("sweep_kept", report.sweep.kept);
    counts.insert("sweep_dropped", report.sweep.dropped);
    counts.insert("tables_built", report.tables_built);
    counts
}

/// 64-bit FNV-1a, as 16 hex digits.
pub fn fnv64(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Digest of a canonical text's alignment lines as a set (sorted).
pub fn aln_set_digest(canonical: &str) -> String {
    let mut lines: Vec<&str> = canonical
        .lines()
        .filter(|l| l.starts_with("aln\t"))
        .collect();
    lines.sort_unstable();
    fnv64(lines.join("\n").as_bytes())
}

struct JobResult {
    setup_s: f64,
    wall_s: f64,
    query_bp: u64,
    pairs: u64,
    pairs_bad: u64,
    resumed: u64,
    spec_discard: u64,
    digest: String,
    out_digest: String,
    aln_digest: String,
    counts: BTreeMap<&'static str, u64>,
}

fn job_json(r: &JobResult) -> String {
    format!(
        "{{\"setup_s\":{},\"wall_s\":{},\"peak_rss_mb\":{},\"query_bp\":{},\"pairs\":{},\
         \"pairs_bad\":{},\"resumed\":{},\"spec_discard\":{},\"digest\":\"{}\",\
         \"out_digest\":\"{}\",\"aln_digest\":\"{}\",\"counts\":{}}}",
        num(r.setup_s),
        num(r.wall_s),
        num(vm_hwm_kb() as f64 / 1024.0),
        r.query_bp,
        r.pairs,
        r.pairs_bad,
        r.resumed,
        r.spec_discard,
        r.digest,
        r.out_digest,
        r.aln_digest,
        int_map(&r.counts)
    )
}

/// A finite float as JSON (non-finite values become 0).
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

pub fn int_map(map: &BTreeMap<&str, u64>) -> String {
    let fields: Vec<String> = map.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!("{{{}}}", fields.join(","))
}

pub fn num_map(map: &BTreeMap<&str, f64>) -> String {
    let fields: Vec<String> = map
        .iter()
        .map(|(k, v)| format!("\"{k}\":{}", num(*v)))
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// Peak resident set size of this process (`VmHWM`), in KiB; 0 where
/// `/proc` is unavailable.
pub fn vm_hwm_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv64(b""), "cbf29ce484222325");
        assert_eq!(fnv64(b"a"), "af63dc4c8601ec8c");
    }

    #[test]
    fn aln_digest_ignores_line_order_and_other_lines() {
        let a = "pair\tx\ty\tcompleted\naln\t1\naln\t2\nworkload\t1\n";
        let b = "aln\t2\naln\t1\n";
        assert_eq!(aln_set_digest(a), aln_set_digest(b));
        assert_ne!(aln_set_digest(a), aln_set_digest("aln\t1\n"));
    }

    #[test]
    fn cli_takes_inputs_threads_and_outputs() {
        let cli = Cli::parse(
            ["t.fa", "--threads", "2", "q.fa", "--maf", "o.maf"]
                .map(String::from)
                .to_vec(),
        )
        .unwrap();
        assert_eq!(
            cli.inputs,
            vec![PathBuf::from("t.fa"), PathBuf::from("q.fa")]
        );
        assert_eq!(cli.threads, 2);
        assert_eq!(cli.maf.as_deref(), Some(Path::new("o.maf")));
        assert!(Cli::parse(vec!["--executor".into(), "dataflow".into()]).is_err());
    }

    #[test]
    fn non_finite_numbers_stay_valid_json() {
        assert_eq!(num(f64::NAN), "0");
        assert_eq!(num(1.5), "1.5");
    }
}
