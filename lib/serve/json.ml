include Rsg_obs.Json
