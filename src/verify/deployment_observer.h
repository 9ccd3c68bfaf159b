// Read-only observation hooks into a running Deployment.
//
// The deployment invokes these at the boundaries of its accounting and
// controller ticks and on crash/reboot edges. Observers must treat the
// deployment as const and draw no randomness: an attached observer may never
// perturb the simulation (the golden bit-identity test runs with the
// invariant monitor attached to prove exactly that).
//
// Header-only interface so src/cluster can call through it without linking
// against the verify library that implements the concrete monitors.

#ifndef RHYTHM_SRC_VERIFY_DEPLOYMENT_OBSERVER_H_
#define RHYTHM_SRC_VERIFY_DEPLOYMENT_OBSERVER_H_

#include "src/control/machine_agent.h"

namespace rhythm {

class Deployment;

class DeploymentObserver {
 public:
  virtual ~DeploymentObserver() = default;

  // After the accounting task has published telemetry, advanced BE progress
  // and sampled every per-pod series for this instant.
  virtual void AfterAccountingTick(const Deployment& deployment) { (void)deployment; }

  // Immediately before agent `pod` consumes `sample` this controller tick.
  // Offline pods are skipped by the controller loop, so this firing is
  // itself an assertable event ("no actuation lands on a crashed machine").
  virtual void BeforeAgentTick(const Deployment& deployment, int pod,
                               const MachineAgent::TelemetrySample& sample) {
    (void)deployment;
    (void)pod;
    (void)sample;
  }

  // After every online agent acted this controller tick.
  virtual void AfterControllerTick(const Deployment& deployment) { (void)deployment; }

  // Crash/reboot edges, fired after the deployment finished its own handling
  // (BE teardown / re-admission unblocking).
  virtual void OnPodCrash(const Deployment& deployment, int pod) {
    (void)deployment;
    (void)pod;
  }
  virtual void OnPodReboot(const Deployment& deployment, int pod) {
    (void)deployment;
    (void)pod;
  }
};

}  // namespace rhythm

#endif  // RHYTHM_SRC_VERIFY_DEPLOYMENT_OBSERVER_H_
