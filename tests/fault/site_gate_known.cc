// Must compile: a probe naming a site in fault::crashSites.
#include "fault/fault.hh"
void probe() { KINDLE_CRASH_SITE("ckpt.after_commit"); }
