/**
 * @file
 * Umbrella header for the CMD framework.
 *
 * Note one documented composition limit: calling both enq() and deq()
 * of the same Fifo from a single rule is unsupported (it double-writes
 * the occupancy register and raises a KernelFault); route pass-through
 * traffic through two rules, as hardware would pipeline it.
 */
#pragma once

#include "core/digest.hh"
#include "core/ehr.hh"
#include "core/fault.hh"
#include "core/fifo.hh"
#include "core/harden.hh"
#include "core/kernel.hh"
#include "core/log.hh"
#include "core/reg.hh"
#include "core/stats.hh"
#include "core/timed_fifo.hh"
