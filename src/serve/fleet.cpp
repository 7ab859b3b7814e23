#include "serve/fleet.h"

#include <algorithm>
#include <string>
#include <utility>

#include "core/experiment.h"
#include "hpc/capture.h"
#include "sim/workloads.h"
#include "support/check.h"
#include "support/parallel.h"
#include "support/rng.h"

namespace hmd::serve {

namespace {

// Independent salt per decision stream: drop decisions, scale jitter, and
// host assignment must not share randomness, or consuming one (e.g. the
// admission path asking "dropped?" before generating the row) would
// perturb the others.
constexpr std::uint64_t kHostSalt = 0x9D7A11F0C3B52E64ULL;
constexpr std::uint64_t kDropSalt = 0x5EED0FDA7ADE0D11ULL;
constexpr std::uint64_t kScaleSalt = 0xC0FFEE1234ABCD99ULL;
constexpr std::uint64_t kCampaignSalt = 0xD81F7A2E50C4B376ULL;

std::uint64_t pack(std::uint32_t host, std::uint32_t tick) {
  return (static_cast<std::uint64_t>(host) << 32) | tick;
}

}  // namespace

FleetSetup make_fleet(const FleetConfig& cfg) {
  HMD_REQUIRE(cfg.hosts >= 1);
  HMD_REQUIRE(cfg.ticks >= 1);
  HMD_REQUIRE(cfg.bank_intervals >= 1);
  HMD_REQUIRE(cfg.malware_fraction >= 0.0 && cfg.malware_fraction <= 1.0);
  HMD_REQUIRE(cfg.drop_rate >= 0.0 && cfg.drop_rate < 1.0);
  const FleetDriftConfig& drift = cfg.drift;
  if (drift.enabled) {
    HMD_REQUIRE(drift.novel_templates >= 1 &&
                drift.novel_templates < sim::malware_template_count());
    HMD_REQUIRE(drift.campaign_fraction >= 0.0 &&
                drift.campaign_fraction <= 1.0);
    HMD_REQUIRE(drift.benign_shift >= 0.0);
  }
  // Templates the deployed model trains on; the held-out tail is the drift
  // scenario's novel families, reachable only through the bank.
  const std::size_t trained_malware_templates =
      drift.enabled ? sim::malware_template_count() - drift.novel_templates
                    : sim::malware_template_count();

  FleetSetup fleet;
  fleet.cfg = cfg;

  // Offline phase, exactly the deployment recipe of examples/runtime_monitor:
  // the 44-event study capture picks the top features, then the served
  // model is retrained on data captured the way it will be read at run
  // time (its events together, one run per app).
  core::ExperimentConfig exp;
  exp.corpus.seed = cfg.seed;
  exp.corpus.benign_per_template = cfg.train_variants;
  exp.corpus.malware_per_template = cfg.train_variants;
  exp.corpus.intervals_per_app = cfg.train_intervals;
  // Drift: the study and both training corpora exclude the novel-family
  // templates — the model's first contact with them is the campaign wave.
  if (drift.enabled)
    exp.corpus.malware_template_limit = trained_malware_templates;
  exp.threads = cfg.threads;
  exp.capture.threads = cfg.threads;
  const core::ExperimentContext ctx = core::prepare_experiment(exp);

  for (std::size_t f : ctx.top_features(cfg.hpcs))
    fleet.events.push_back(sim::event_from_name(ctx.full.feature_name(f)));
  fleet.num_features = fleet.events.size();

  sim::CorpusConfig deploy = exp.corpus;
  deploy.benign_per_template = cfg.train_variants + 2;
  deploy.malware_per_template = cfg.train_variants + 2;
  // Capture the deployment-protocol training split here (instead of inside
  // train_deployment_model) so the split itself can be cached on the setup:
  // a drift-triggered retrain augments exactly this data, or — with a
  // checkpoint directory — re-captures this same recipe resumably.
  const hpc::Capture deploy_capture = hpc::capture_corpus(
      sim::build_corpus(deploy), fleet.events, exp.capture);
  fleet.base_train = core::to_dataset(deploy_capture);
  fleet.offline = true;
  fleet.deploy_corpus = deploy;
  fleet.capture_cfg = exp.capture;
  std::shared_ptr<ml::Classifier> model =
      ml::make_detector(fleet.model_kind, fleet.model_ensemble,
                        fleet.model_seed);
  // Trained as a one-unit pool job so a bagged detector's members fan out
  // (ml/bagging.h), exactly as the drift retrain does (serve/drift.cpp).
  support::ThreadPool(cfg.threads).parallel_for(
      1, [&](std::size_t) { model->train(fleet.base_train); });
  fleet.model = std::move(model);
  fleet.backend = ml::make_active_backend(*fleet.model);

  // Template bank: one *unseen* variant per behaviour template (the
  // variant index was never instantiated by either training corpus),
  // captured with exactly the model's events — one run per app.
  const std::uint32_t unseen = deploy.benign_per_template;
  std::vector<sim::AppProfile> bank_corpus;
  for (std::size_t t = 0; t < sim::benign_template_count(); ++t)
    bank_corpus.push_back(
        sim::make_benign(t, unseen, cfg.seed, cfg.bank_intervals));
  for (std::size_t t = 0; t < sim::malware_template_count(); ++t)
    bank_corpus.push_back(
        sim::make_malware(t, unseen, cfg.seed, cfg.bank_intervals));
  const hpc::Capture bank =
      hpc::capture_corpus(bank_corpus, fleet.events, exp.capture);
  HMD_REQUIRE(bank.num_features() == fleet.num_features);

  fleet.app_begin.assign(bank_corpus.size(), 0);
  fleet.app_rows.assign(bank_corpus.size(), 0);
  fleet.app_labels = bank.app_labels;
  for (std::size_t r = 0; r < bank.num_rows(); ++r) {
    const std::size_t app = bank.row_app[r];
    if (fleet.app_rows[app] == 0) fleet.app_begin[app] = fleet.bank.size() /
                                                         fleet.num_features;
    ++fleet.app_rows[app];
    fleet.bank.insert(fleet.bank.end(), bank.rows[r].begin(),
                      bank.rows[r].end());
  }
  for (std::size_t app = 0; app < bank_corpus.size(); ++app)
    HMD_REQUIRE_MSG(fleet.app_rows[app] > 0,
                    "bank app captured no rows: " + bank.app_names[app]);

  // Host assignment: every field is a hash of (seed, host) — stable under
  // any fleet size change that keeps the host index.
  const std::uint32_t benign_apps =
      static_cast<std::uint32_t>(sim::benign_template_count());
  const std::uint32_t malware_apps =
      static_cast<std::uint32_t>(sim::malware_template_count());
  const std::uint64_t host_seed = mix64(cfg.seed ^ kHostSalt);
  fleet.hosts.resize(cfg.hosts);
  for (std::uint32_t h = 0; h < cfg.hosts; ++h) {
    const std::uint64_t hs = mix64(host_seed ^ h);
    HostProfile& p = fleet.hosts[h];
    p.is_malware =
        static_cast<double>(mix64(hs ^ 1) >> 11) * 0x1.0p-53 <
        cfg.malware_fraction;
    p.benign_app = static_cast<std::uint32_t>(mix64(hs ^ 2) % benign_apps);
    p.malware_app =
        benign_apps + static_cast<std::uint32_t>(mix64(hs ^ 3) % malware_apps);
    if (!p.is_malware) p.malware_app = p.benign_app;
    // Infection begins somewhere in the middle 60% of the run, so every
    // malware host shows both clean and infected behaviour.
    p.onset_tick = cfg.ticks / 5 +
                   static_cast<std::uint32_t>(
                       mix64(hs ^ 4) % (1 + (cfg.ticks * 3) / 5));
    p.phase = static_cast<std::uint32_t>(mix64(hs ^ 5));
    if (p.is_malware) ++fleet.malware_hosts;

    // Campaign recruitment: an extra hash-selected slice of the *benign*
    // hosts switches to a novel-family app mid-run, with individually
    // staggered onsets — the wave arrives over campaign_spread ticks, not
    // as one synchronized step. Pure hash of (seed, host), like the rest.
    if (drift.enabled && !p.is_malware) {
      const std::uint64_t cs = mix64(mix64(cfg.seed ^ kCampaignSalt) ^ h);
      if (static_cast<double>(mix64(cs ^ 1) >> 11) * 0x1.0p-53 <
          drift.campaign_fraction) {
        const std::uint32_t onset =
            drift.campaign_onset > 0 ? drift.campaign_onset : cfg.ticks / 2;
        p.campaign = true;
        p.campaign_app =
            benign_apps +
            static_cast<std::uint32_t>(trained_malware_templates) +
            static_cast<std::uint32_t>(mix64(cs ^ 2) %
                                       drift.novel_templates);
        p.campaign_onset =
            onset + static_cast<std::uint32_t>(
                        mix64(cs ^ 3) %
                        (1 + static_cast<std::uint64_t>(
                                 drift.campaign_spread)));
        ++fleet.campaign_hosts;
      }
    }
  }
  return fleet;
}

bool sample_dropped(const FleetSetup& fleet, std::uint32_t host,
                    std::uint32_t tick) {
  const double rate = fleet.cfg.drop_rate;
  if (rate <= 0.0) return false;
  const std::uint64_t v =
      mix64(mix64(fleet.cfg.seed ^ kDropSalt) ^ pack(host, tick));
  return static_cast<double>(v >> 11) * 0x1.0p-53 < rate;
}

void gen_features(const FleetSetup& fleet, std::uint32_t host,
                  std::uint32_t tick, std::span<double> out) {
  HMD_REQUIRE(out.size() == fleet.num_features);
  const HostProfile& p = fleet.hosts[host];
  // Campaign recruits replay their novel-family app once their staggered
  // onset passes; statically assigned malware hosts keep their app.
  std::uint32_t app = p.benign_app;
  bool infected = false;
  if (p.is_malware && tick >= p.onset_tick) {
    app = p.malware_app;
    infected = true;
  } else if (p.campaign && tick >= p.campaign_onset) {
    app = p.campaign_app;
    infected = true;
  }
  const std::size_t rows = fleet.app_rows[app];
  const std::size_t row = fleet.app_begin[app] + (tick + p.phase) % rows;
  const double* src = fleet.bank.data() + row * fleet.num_features;
  double scale = 1.0;
  if (fleet.cfg.scale_sigma > 0.0) {
    Rng rng(mix64(fleet.cfg.seed ^ kScaleSalt) ^ pack(host, tick));
    scale = rng.lognormal(0.0, fleet.cfg.scale_sigma);
  }
  // Benign behaviour shift: clean rows drift upward by a deterministic
  // ramp after the campaign onset — the environment changed, no malware
  // involved. Infected rows are left alone so the shift erodes the benign
  // side of the decision boundary specifically.
  const FleetDriftConfig& drift = fleet.cfg.drift;
  if (drift.enabled && !infected && drift.benign_shift > 0.0) {
    const std::uint32_t onset =
        drift.campaign_onset > 0 ? drift.campaign_onset : fleet.cfg.ticks / 2;
    if (tick >= onset) {
      const double ramp =
          drift.benign_shift_ramp == 0
              ? 1.0
              : std::min(1.0, static_cast<double>(tick - onset) /
                                  static_cast<double>(drift.benign_shift_ramp));
      scale *= 1.0 + drift.benign_shift * ramp;
    }
  }
  for (std::size_t j = 0; j < fleet.num_features; ++j) out[j] = src[j] * scale;
}

}  // namespace hmd::serve
