//! The traced run: the pipeline recomposed, serially, from each layer's
//! public calls, with a span around every call.
//!
//! For a chromosome pair the composition is: build the seed table, run
//! D-SOFT, run the filter engine on every hit, sort anchors by
//! descending filter score and extend them with absorption, chain, and
//! write the MAF. `trace-many` recomposes the matrix from the same pair
//! composition plus the many-genome pieces (`MultiIndex`,
//! `Journal::append`, `plane_sweep`, `paf_text`), then times
//! `align_many` as one call.
//!
//! The composition must describe the same program the end-to-end jobs
//! run, so its counts and alignment set are printed for `run.py` to
//! compare with theirs.

use crate::trace::Tracer;
use crate::{
    align_counts, aln_set_digest, fnv64, int_map, many_counts, num, num_map, render_maf, vm_hwm_kb,
    Cli, CHAIN_MIN_SCORE,
};
use darwin_wga::chain::chainer::chain_alignments;
use darwin_wga::core::absorb::{merge_into_kept, AbsorptionGrid};
use darwin_wga::core::durable;
use darwin_wga::core::filter_engine::FilterContext;
use darwin_wga::core::genome_pipeline::{AssemblyReport, LocatedAlignment};
use darwin_wga::core::journal::{params_fingerprint, Journal, PairRecord};
use darwin_wga::core::pangenome::index::{scaled_params, MultiIndex};
use darwin_wga::core::pangenome::joblist::build_joblist;
use darwin_wga::core::pangenome::mash::Sketch;
use darwin_wga::core::pangenome::{
    self, plane_sweep, GenomeSummary, ManyAlignment, ManyOptions, ManyPair, ManyReport,
};
use darwin_wga::core::report::{
    FunnelCounters, PairOutcome, RunOutcome, StageTimings, Strand, WgaAlignment,
};
use darwin_wga::core::stages::run_extension;
use darwin_wga::core::WgaParams;
use darwin_wga::genome::assembly::Assembly;
use darwin_wga::genome::{fasta, Sequence};
use darwin_wga::hwsim::{perf::modeled_cycles, AcceleratorConfig, Workload};
use darwin_wga::seed::{dsoft_seeds, Anchor, SeedTable};
use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::BufReader;
use std::path::Path;

/// Counts gathered along the composition, beside the program's own
/// `Workload` / `FunnelCounters` shapes.
#[derive(Debug, Default)]
struct Tally {
    workload: Workload,
    counters: FunnelCounters,
    input_bytes: u64,
    table_positions: u64,
    seed_hits: u64,
    extend_runs: u64,
    extend_rss_growth_kb: u64,
    chains: u64,
    maf_bytes: u64,
    paf_bytes: u64,
    report_bytes: u64,
    journal_bytes: u64,
    index_builds: u64,
    index_hits: u64,
    sweep_removed: u64,
}

/// Reads one FASTA file under a `genome.read` span.
fn traced_read(tr: &mut Tracer, tally: &mut Tally, path: &Path) -> Result<Assembly, String> {
    let records = tr.time("genome.read", || -> Result<_, String> {
        let file = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
        fasta::read(BufReader::new(file)).map_err(|e| format!("{}: {e}", path.display()))
    })?;
    tally.input_bytes += std::fs::metadata(path).map_or(0, |m| m.len());
    let name = path.file_stem().map_or_else(
        || path.display().to_string(),
        |s| s.to_string_lossy().into_owned(),
    );
    let mut assembly = Assembly::new(name);
    for record in records {
        assembly.push(record.name, record.sequence);
    }
    if assembly.is_empty() {
        return Err(format!("{}: no records", path.display()));
    }
    Ok(assembly)
}

fn traced_table(
    tr: &mut Tracer,
    tally: &mut Tally,
    params: &WgaParams,
    target: &Sequence,
) -> SeedTable {
    let table = tr.time("seed.table", || {
        SeedTable::build(target, &params.seed_pattern, params.max_seed_occurrences)
    });
    tally.table_positions += table.positions_indexed();
    table
}

/// Seeds, filters and extends one chromosome pair against a prebuilt
/// table, returning its alignments best score first (the order the
/// pipeline reports them in) and the pair's own workload and counters.
fn compose_pair(
    tr: &mut Tracer,
    tally: &mut Tally,
    params: &WgaParams,
    table: &SeedTable,
    target: &Sequence,
    query: &Sequence,
) -> (Vec<WgaAlignment>, Workload, FunnelCounters) {
    let mut workload = Workload::default();
    let mut counters = FunnelCounters::default();
    let mut out = Vec::new();
    let reverse;
    let mut strands = vec![(Strand::Forward, query)];
    if params.both_strands {
        reverse = query.reverse_complement();
        strands.push((Strand::Reverse, &reverse));
    }
    for (strand, query) in strands {
        // 1-2. D-SOFT seeding against the table.
        let seeding = tr.time("seed.dsoft", || dsoft_seeds(table, query, &params.dsoft));
        workload.seeds += seeding.seeds_queried;
        counters.raw_seed_hits += seeding.raw_hits;
        tally.seed_hits += seeding.hits.len() as u64;

        // 3. The filter engine on every hit.
        let ctx = tr.time("filter", || FilterContext::new(params, target, query));
        let mut engine = tr.time("filter", || ctx.engine());
        let mut anchors: Vec<Anchor> = Vec::new();
        for &hit in &seeding.hits {
            let outcome = tr.time("filter", || engine.filter_hit(params, target, query, hit));
            workload.filter_tiles += 1;
            counters.hits_filtered += 1;
            counters.filter_cells += outcome.cells;
            anchors.extend(outcome.anchor);
        }
        counters.anchors_passed += anchors.len() as u64;

        // 4. Best filter score first, extension with absorption.
        tr.time("extend", || {
            anchors.sort_by_key(|a| Reverse(a.filter_score))
        });
        let mut grid = AbsorptionGrid::new();
        let mut kept: Vec<darwin_wga::align::Alignment> = Vec::new();
        for anchor in anchors {
            if tr.time("absorb", || {
                grid.covers(anchor.target_pos, anchor.query_pos)
            }) {
                counters.anchors_absorbed += 1;
                continue;
            }
            let hwm_before = vm_hwm_kb();
            let ext = tr.time("extend", || run_extension(params, target, query, anchor));
            tally.extend_rss_growth_kb += vm_hwm_kb().saturating_sub(hwm_before);
            tally.extend_runs += 1;
            let Some(ext) = ext else {
                continue;
            };
            workload.extension_tiles += ext.stats.tiles;
            workload.extension_cells += ext.stats.cells;
            workload.extension_rows += ext.stats.rows;
            if ext.alignment.score >= params.extension_threshold {
                let alignment = ext.alignment;
                let merged = tr.time("absorb", || {
                    grid.insert_alignment(&alignment);
                    merge_into_kept(&mut kept, alignment)
                });
                if !merged {
                    counters.anchors_absorbed += 1;
                }
            }
        }
        counters.alignments_kept += kept.len() as u64;
        out.extend(
            kept.into_iter()
                .map(|alignment| WgaAlignment { alignment, strand }),
        );
    }
    out.sort_by_key(|a| Reverse(a.alignment.score));
    tally.workload.merge(&workload);
    tally.counters.merge(&counters);
    (out, workload, counters)
}

/// 5. Chains one pair's alignments, as `wga align` does.
fn traced_chain(tr: &mut Tracer, tally: &mut Tally, alignments: &[WgaAlignment]) {
    if alignments.is_empty() {
        return;
    }
    let plain: Vec<_> = alignments.iter().map(|a| a.alignment.clone()).collect();
    let chains = tr.time("chain", || chain_alignments(&plain, CHAIN_MIN_SCORE));
    tally.chains += chains.len() as u64;
}

/// Traced `wga align`: every target × query chromosome pair composed
/// serially, then the MAF.
pub fn trace_align(cli: &Cli) -> Result<String, String> {
    let [target_path, query_path] = &cli.inputs[..] else {
        return Err("trace-align needs <target.fa> <query.fa>".to_string());
    };
    let maf_path = cli.required(&cli.maf, "--maf")?;
    let mut tr = Tracer::new(cli.run_id);
    let mut tally = Tally::default();
    let root = tr.enter("run");

    let target = traced_read(&mut tr, &mut tally, target_path)?;
    let query = traced_read(&mut tr, &mut tally, query_path)?;
    let params = crate::darwin_params()?;
    let mut report = AssemblyReport::default();
    for tchrom in target.chromosomes() {
        let table = traced_table(&mut tr, &mut tally, &params, &tchrom.sequence);
        for qchrom in query.chromosomes() {
            let pair = tr.enter("pair");
            let (alignments, _, _) = compose_pair(
                &mut tr,
                &mut tally,
                &params,
                &table,
                &tchrom.sequence,
                &qchrom.sequence,
            );
            traced_chain(&mut tr, &mut tally, &alignments);
            tr.exit(pair);
            report.pairs.push(PairOutcome {
                target_chrom: tchrom.name.clone(),
                query_chrom: qchrom.name.clone(),
                outcome: RunOutcome::Completed,
            });
            report
                .alignments
                .extend(alignments.into_iter().map(|aligned| LocatedAlignment {
                    target_chrom: tchrom.name.clone(),
                    query_chrom: qchrom.name.clone(),
                    aligned,
                }));
        }
    }
    report
        .alignments
        .sort_by_key(|a| Reverse(a.aligned.alignment.score));
    report.workload = tally.workload;

    // 6. The MAF, rendered and placed atomically.
    let maf_bytes = tr.time("maf.write", || -> Result<Vec<u8>, String> {
        let bytes = render_maf(&report, &target, &query)?;
        durable::write_atomic(maf_path, &bytes).map_err(|e| e.to_string())?;
        Ok(bytes)
    })?;
    tally.maf_bytes = maf_bytes.len() as u64;
    tr.exit(root);

    let mut counts = align_counts(&tally.workload, &tally.counters);
    counts.insert("chains", tally.chains);
    counts.insert("alignments", report.alignments.len() as u64);
    counts.insert("matched_bp", report.total_matches());
    let canonical = report.canonical_text();
    finish(
        cli,
        &tr,
        root,
        None,
        &tally,
        &counts,
        None,
        &canonical,
        fnv64(&maf_bytes),
    )
}

/// Traced `wga many`: `align_many` timed as one call, then the matrix
/// recomposed serially from the pair composition and the many-genome
/// pieces.
pub fn trace_many(cli: &Cli) -> Result<String, String> {
    if cli.inputs.len() < 2 {
        return Err("trace-many needs at least two genome FASTAs".to_string());
    }
    let report_path = cli.required(&cli.report_out, "--report-out")?;
    let paf_path = cli.required(&cli.paf_out, "--paf-out")?;
    let checkpoint = cli.required(&cli.checkpoint, "--checkpoint")?;
    let mut tr = Tracer::new(cli.run_id);
    let mut tally = Tally::default();
    let root = tr.enter("run");

    let mut genomes = Vec::new();
    for path in &cli.inputs {
        genomes.push(traced_read(&mut tr, &mut tally, path)?);
    }
    let params = crate::darwin_params()?;

    // The matrix recomposed from the layers' calls. It runs before the
    // program's own run so that `VmHWM` growth across extension calls
    // is not hidden by a peak the program already reached.
    let compose_dir = checkpoint.join("compose");
    std::fs::create_dir_all(&compose_dir).map_err(|e| format!("{}: {e}", compose_dir.display()))?;
    let scaled = scaled_params(&params, genomes.len());
    let plans = tr.time("pangenome.plan", || {
        let sketches: Vec<Sketch> = genomes.iter().map(Sketch::of_assembly).collect();
        build_joblist(&sketches, None)
    });
    let index = MultiIndex::new(scaled.clone(), &genomes, 1);
    let mut report = ManyReport {
        genomes: genomes
            .iter()
            .map(|g| GenomeSummary {
                name: g.name.clone(),
                chromosomes: g.chromosomes().len() as u64,
                bases: g.total_bases() as u64,
            })
            .collect(),
        ..ManyReport::default()
    };
    let mut merged: Vec<ManyAlignment> = Vec::new();
    for plan in &plans {
        let (target, query) = (&genomes[plan.a], &genomes[plan.b]);
        let journal_path = compose_dir.join(format!("pair_{:03}_{:03}.journal", plan.a, plan.b));
        let mut journal = tr
            .time("journal.append", || {
                Journal::open(&journal_path, &params_fingerprint(&scaled))
            })
            .map_err(|e| e.to_string())?;
        let mut pair_alignments: Vec<LocatedAlignment> = Vec::new();
        for (ti, tchrom) in target.chromosomes().iter().enumerate() {
            for qchrom in query.chromosomes() {
                let builds = index.builds();
                let lookup = tr.enter("pangenome.index");
                let table = index.table(plan.a, ti);
                tr.exit(lookup);
                if index.builds() > builds {
                    tr.rename(lookup, "seed.table");
                    tally.index_builds += 1;
                    tally.table_positions += table.positions_indexed();
                } else {
                    tally.index_hits += 1;
                }
                let pair = tr.enter("pair");
                let (alignments, workload, counters) = compose_pair(
                    &mut tr,
                    &mut tally,
                    &scaled,
                    &table,
                    &tchrom.sequence,
                    &qchrom.sequence,
                );
                tr.exit(pair);
                let record = PairRecord {
                    target_chrom: tchrom.name.clone(),
                    query_chrom: qchrom.name.clone(),
                    outcome: RunOutcome::Completed,
                    workload,
                    timings: StageTimings::default(),
                    counters,
                    alignments: alignments.clone(),
                };
                tr.time("journal.append", || journal.append(&record))
                    .map_err(|e| e.to_string())?;
                pair_alignments.extend(alignments.into_iter().map(|aligned| LocatedAlignment {
                    target_chrom: tchrom.name.clone(),
                    query_chrom: qchrom.name.clone(),
                    aligned,
                }));
            }
        }
        tally.journal_bytes += std::fs::metadata(&journal_path).map_or(0, |m| m.len());
        pair_alignments.sort_by_key(|a| Reverse(a.aligned.alignment.score));
        let chrom_pairs = (target.chromosomes().len() * query.chromosomes().len()) as u64;
        report.pairs.push(ManyPair {
            target_genome: target.name.clone(),
            query_genome: query.name.clone(),
            scheduled: plan.scheduled,
            shared: plan.shared,
            completed: chrom_pairs,
            degraded: 0,
            failed: 0,
        });
        merged.extend(pair_alignments.into_iter().map(|located| ManyAlignment {
            target_genome: target.name.clone(),
            target_chrom: located.target_chrom,
            query_genome: query.name.clone(),
            query_chrom: located.query_chrom,
            aligned: located.aligned,
        }));
    }
    let (kept, sweep) = tr.time("pangenome.sweep", || plane_sweep::plane_sweep(merged));
    tally.sweep_removed = sweep.dropped;
    report.alignments = kept;
    report.sweep = sweep;
    report.workload = tally.workload;
    report.counters = tally.counters;
    report.tables_built = index.builds();

    let canonical = tr.time("report.write", || -> Result<String, String> {
        let text = report.canonical_text();
        durable::write_atomic(report_path, text.as_bytes()).map_err(|e| e.to_string())?;
        Ok(text)
    })?;
    tally.report_bytes = canonical.len() as u64;
    let paf = tr.time("paf", || -> Result<String, String> {
        let text = pangenome::paf::paf_text(&report, &genomes);
        durable::write_atomic(paf_path, text.as_bytes()).map_err(|e| e.to_string())?;
        Ok(text)
    })?;
    tally.paf_bytes = paf.len() as u64;

    // The program's own many-genome run, seen from outside.
    let exec_dir = checkpoint.join("exec");
    let options = ManyOptions {
        threads: cli.threads,
        checkpoint_dir: Some(exec_dir),
        ..ManyOptions::default()
    };
    let exec = tr.enter("exec");
    let program = pangenome::align_many(&params, &genomes, &options).map_err(|e| e.to_string())?;
    tr.exit(exec);

    tr.exit(root);

    let counts = many_counts(&report);
    let program_counts = many_counts(&program);
    let program_alns = aln_set_digest(&program.canonical_text());
    finish(
        cli,
        &tr,
        root,
        Some(exec),
        &tally,
        &counts,
        Some((&program_counts, program_alns)),
        &canonical,
        fnv64(paf.as_bytes()),
    )
}

/// Writes the spans and renders the traced run's result line.
#[allow(clippy::too_many_arguments)]
fn finish(
    cli: &Cli,
    tr: &Tracer,
    root: usize,
    exec: Option<usize>,
    tally: &Tally,
    counts: &BTreeMap<&'static str, u64>,
    program: Option<(&BTreeMap<&'static str, u64>, String)>,
    canonical: &str,
    out_digest: String,
) -> Result<String, String> {
    if let Some(path) = &cli.spans {
        let file = File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        tr.write_jsonl(std::io::BufWriter::new(file))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let acc = AcceleratorConfig::fpga();
    let cycles = modeled_cycles(&tally.workload, &acc);
    let w = &tally.workload;
    let filter_hw_s = w.filter_tiles as f64 / acc.bsw.tiles_per_second();
    let extend_hw_s =
        acc.gactx
            .seconds_for_workload(w.extension_tiles, w.extension_cells, w.extension_rows);
    let exec_s = exec.map_or(0.0, |id| tr.seconds(id));
    let extra = BTreeMap::from([
        ("input_bytes", tally.input_bytes),
        ("table_positions", tally.table_positions),
        ("seed_hits", tally.seed_hits),
        ("extend_runs", tally.extend_runs),
        ("extend_rss_growth_kb", tally.extend_rss_growth_kb),
        ("maf_bytes", tally.maf_bytes),
        ("paf_bytes", tally.paf_bytes),
        ("report_bytes", tally.report_bytes),
        ("journal_bytes", tally.journal_bytes),
        ("index_builds", tally.index_builds),
        ("index_hits", tally.index_hits),
        ("sweep_removed", tally.sweep_removed),
        ("filter_hw_cycles", cycles.bsw_cycles),
        ("extend_hw_cycles", cycles.gactx_cycles),
        ("spans", tr.spans().len() as u64),
    ]);
    let (program_counts, program_alns) = match program {
        Some((c, d)) => (int_map(c), format!("\"{d}\"")),
        None => ("null".to_string(), "null".to_string()),
    };
    Ok(format!(
        "{{\"traced_s\":{},\"exec_s\":{},\"filter_hw_s\":{},\"extend_hw_s\":{},\"self_s\":{},\
         \"counts\":{},\"extra\":{},\"aln_digest\":\"{}\",\"out_digest\":\"{out_digest}\",\
         \"program_counts\":{program_counts},\"program_aln_digest\":{program_alns}}}",
        num(tr.seconds(root) - exec_s),
        num(exec_s),
        num(filter_hw_s),
        num(extend_hw_s),
        num_map(&tr.self_seconds()),
        int_map(counts),
        int_map(&extra),
        aln_set_digest(canonical),
    ))
}
