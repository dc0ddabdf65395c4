//! Figure 13: where the time goes, Agora vs the pipeline-parallel
//! variant (64x16, 1 ms frame, 26 cores):
//! (a) per-block processing (wall-clock span each block occupies);
//! (b) milestone breakdown — queueing delay, pilot done, ZF done,
//!     decode done.

use agora_bench::csv::write_csv;
use agora_core::sim::{pipeline_allocation, simulate, SimConfig, SimPolicy};
use agora_phy::CellConfig;

fn main() {
    let cell = CellConfig::emulated_rru(64, 16, 13);
    let frames = 12;

    let dp_cfg = SimConfig::new(cell.clone(), 26, frames);
    let dp = simulate(&dp_cfg);

    let mut pp_cfg = SimConfig::new(cell.clone(), 26, frames);
    // Static allocation computed by the §5.4 policy (each block gets
    // enough cores to keep up; spares go to the slowest block). ZF ends
    // up with ~3 dedicated cores — exactly the bottleneck the paper
    // calls out in §6.3.1.
    let alloc = pipeline_allocation(&pp_cfg);
    println!("pipeline-parallel core allocation [FFT,ZF,Demod,Decode,Enc,Pre,IFFT]: {alloc:?}\n");
    pp_cfg.policy = SimPolicy::PipelineParallel { cores: alloc };
    let pp = simulate(&pp_cfg);

    let mid = |rep: &agora_core::sim::SimReport| {
        let n = rep.milestones.len();
        let ms = rep.milestones[n / 2];
        let us = |at_ns: u64| at_ns.saturating_sub(ms.first_packet_ns) as f64 / 1e3;
        (us(ms.processing_start_ns), us(ms.pilot_done_ns), us(ms.zf_done_ns), us(ms.decode_done_ns))
    };
    let (dq, dpil, dzf, ddec) = mid(&dp);
    let (pq, ppil, pzf, pdec) = mid(&pp);

    println!("Figure 13(b) — milestones within a frame (us from first packet)");
    println!("milestone        Agora     PipelineParallel");
    println!("queueing delay  {dq:>7.0}   {pq:>7.0}");
    println!("pilot done      {dpil:>7.0}   {ppil:>7.0}");
    println!("ZF done         {dzf:>7.0}   {pzf:>7.0}");
    println!("decode done     {ddec:>7.0}   {pdec:>7.0}");

    println!("\nFigure 13(a) — per-block span (us): time from block start to finish");
    println!("block   Agora     PP       PP/Agora");
    let zf_dp = dzf - dpil;
    let zf_pp = pzf - ppil;
    println!("ZF      {zf_dp:>7.0}  {zf_pp:>7.0}  {:>6.1}x", zf_pp / zf_dp.max(1.0));
    let tail_dp = ddec - dzf;
    let tail_pp = pdec - pzf;
    println!("ZF->dec {tail_dp:>7.0}  {tail_pp:>7.0}  {:>6.1}x", tail_pp / tail_dp.max(1.0));

    let rows = vec![
        format!("agora,{dq},{dpil},{dzf},{ddec}"),
        format!("pipeline,{pq},{ppil},{pzf},{pdec}"),
    ];
    let p = write_csv("fig13_breakdown", "design,queueing_us,pilot_us,zf_us,decode_us", &rows);
    println!("\nwrote {}", p.display());
    println!("expected shape: Agora's big win is ZF (paper: 8.8x faster — all 26");
    println!("cores attack the 75 ZF tasks vs 3 dedicated cores); the ZF->decode");
    println!("span is similar in both designs; PP has slightly lower queueing delay.");
}
